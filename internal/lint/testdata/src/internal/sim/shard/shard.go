// Package shard mirrors the real internal/sim/shard: the file-scoped
// concurrency-boundary pragma sanctions the conservative-lookahead
// worker goroutines (nogo and the determflow goroutine taint stay
// silent).
//
//dophy:concurrency-boundary -- fixture worker-per-shard engine; state crosses only at barrier functions
package shard

import "fixture/internal/topo"

// Engine runs one worker goroutine per shard beyond the first.
type Engine struct {
	start  []chan float64
	merged uint64 //dophy:owner engine // want "unknown directive //dophy:owner"
	done   chan struct{}
}

// Run spawns the sanctioned workers: no nogo/determflow diagnostic.
func (e *Engine) Run(shards int) {
	for i := 1; i < shards; i++ {
		go e.worker(topo.ShardID(i))
	}
}

func (e *Engine) worker(i topo.ShardID) {
	for range e.start[i] {
		e.done <- struct{}{}
	}
}

// Merged is a coordinator accessor. The retired contract annotations are
// rejected rather than left behind as comments that check nothing.
//
//dophy:barrier // want "unknown directive //dophy:barrier"
func (e *Engine) Merged() uint64 { return e.merged }
