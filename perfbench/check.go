package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"dophy/internal/experiment"
)

// digest hashes the final epoch's ground truth (per-link counts and the
// packet tallies), the Dophy loss vector and Dophy's bits per packet. Any
// change to what the simulator or the Dophy estimator computes changes it.
func digest(eo *experiment.EpochOutcome) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putF := func(f float64) {
		if math.IsNaN(f) {
			f = math.NaN() // one canonical NaN
		}
		put(math.Float64bits(f))
	}
	t := eo.Truth
	put(uint64(len(t.Counts)))
	for _, c := range t.Counts {
		put(uint64(c.Attempts))
		put(uint64(c.Successes))
		put(uint64(c.DataAttempts))
	}
	put(uint64(t.Generated))
	put(uint64(t.Delivered))
	put(uint64(t.Dropped))
	put(uint64(t.ParentChanges))
	d := eo.Schemes[experiment.SchemeDophy]
	put(uint64(len(d.Loss)))
	for _, l := range d.Loss {
		putF(l)
	}
	putF(d.BitsPerPacket())
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// seeds.json names the default seed and a held-out seed far from it. A
// gain claimed while working at the default seed is confirmed at the
// held-out one, whose scenarios the default run never touches.
//
//go:embed seeds.json
var seedsJSON []byte

type seedSet struct {
	Default uint64 `json:"default"`
	HeldOut uint64 `json:"held_out"`
}

func benchmarkSeeds() seedSet {
	var s seedSet
	if err := json.Unmarshal(seedsJSON, &s); err != nil {
		panic(fmt.Sprintf("seeds.json: %v", err)) // embedded at build time
	}
	return s
}

// digests.json maps a digest key (workload.digestKey) and a seed to the
// digest that seed produced when it was recorded with `perfbench record`.
//
//go:embed digests.json
var digestsJSON []byte

func recordedDigests() (map[string]map[string]string, error) {
	var m map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

// recordedDigest returns the digest recorded for the key and seed, if any.
func recordedDigest(key string, seed uint64) (string, bool, error) {
	m, err := recordedDigests()
	if err != nil {
		return "", false, err
	}
	d, ok := m[key][strconv.FormatUint(seed, 10)]
	return d, ok, nil
}

// checkIteration compares one iteration with the expected digest and with
// the run's first iteration. It returns the problems found.
func checkIteration(it, first *iteration, want string) []string {
	var bad []string
	if it.counts.DecodeErrors != 0 {
		bad = append(bad, fmt.Sprintf("%d Dophy decode errors", it.counts.DecodeErrors))
	}
	if want != "" && it.digest != want {
		bad = append(bad, fmt.Sprintf("digest %s, want %s", it.digest, want))
	}
	if first != nil && first != it {
		if it.digest != first.digest {
			bad = append(bad, fmt.Sprintf("digest %s differs from the first iteration's %s", it.digest, first.digest))
		}
		if it.counts != first.counts {
			bad = append(bad, fmt.Sprintf("counts %+v differ from the first iteration's %+v", it.counts, first.counts))
		}
	}
	return bad
}

// sameFloats reports whether a and b are bitwise equal, NaNs matching NaNs.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			continue
		}
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
