package core

import (
	"testing"

	"dophy/internal/rng"
	"dophy/internal/topo"
)

// FuzzDecodeGarbage feeds the sink decoder arbitrary annotation bytes for a
// valid origin and a bounded hop budget, as a corrupted or forged packet
// would arrive. Decode must never panic: it either returns an error or a
// path of at most nHops topology links that walks from the origin to the
// sink, with every count symbol inside the count model's alphabet.
func FuzzDecodeGarbage(f *testing.F) {
	tp := topo.Grid(5, 10, 1, 15, rng.New(1))
	d := New(tp, DefaultConfig())
	// A genuine annotation, so the corpus starts from the valid region.
	j := journey([]topo.NodeID{2, 1, 0}, []int{1, 3})
	if !tp.Adjacent(2, 1) || !tp.Adjacent(1, 0) {
		f.Fatal("seed journey is not a path of the fuzz topology")
	}
	data, _, _ := d.encode(j)
	f.Add(uint8(1), uint8(2), append([]byte(nil), data...)) // origin 1+1 = node 2
	// The same bytes from node 3 once decoded three hops against a budget
	// of two: the hop guard let one hop past nHops.
	f.Add(uint8(2), uint8(2), append([]byte(nil), data...))
	f.Add(uint8(24), uint8(8), []byte{})
	f.Add(uint8(12), uint8(0), []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(7), uint8(31), []byte{0x00, 0x01, 0x80, 0x7f, 0x55, 0xaa})

	f.Fuzz(func(t *testing.T, originByte, hopsByte uint8, data []byte) {
		origin := topo.NodeID(1 + int(originByte)%(tp.N()-1))
		nHops := int(hopsByte) % 32
		links, counts, err := d.decode(origin, data, nHops)
		if err != nil {
			return
		}
		if len(links) > nHops {
			t.Fatalf("decoded %d hops from a %d-hop budget", len(links), nHops)
		}
		if len(counts) != len(links) {
			t.Fatalf("decoded %d links but %d counts", len(links), len(counts))
		}
		cur := origin
		for i, l := range links {
			if l.From != cur || !tp.Adjacent(l.From, l.To) {
				t.Fatalf("hop %d: %v does not continue the path at %d", i, l, cur)
			}
			if counts[i] < 0 || counts[i] >= d.CountSymbols() {
				t.Fatalf("hop %d: count symbol %d outside [0, %d)", i, counts[i], d.CountSymbols())
			}
			cur = l.To
		}
		if cur != topo.Sink {
			t.Fatalf("decoded path ends at %d, not the sink", cur)
		}
	})
}
