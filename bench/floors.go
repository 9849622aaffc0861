package main

import (
	"time"

	"vino/internal/graft"
	"vino/internal/guard"
	"vino/internal/kernel"
	"vino/internal/simclock"
	"vino/internal/txn"
)

// timeFloor times fn over iters calls split into five blocks and returns
// the median block's cost per call in nanoseconds.
func timeFloor(iters int, fn func() error) (float64, error) {
	const blocks = 5
	per := max(iters/blocks, 1)
	var costs []float64
	for b := 0; b < blocks; b++ {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		costs = append(costs, float64(time.Since(t0))/float64(per))
	}
	return median(costs), nil
}

// layerFloors times the dispatch wrapper's building blocks alone, with
// nothing else around them: an empty transaction, a guard admission
// with its commit record, and the watchdog's timer arm and cancel.
func layerFloors(iters int) (map[string]float64, error) {
	out := map[string]float64{}

	k := kernel.New(kernel.Config{Timeslice: time.Hour})
	var txnFloor float64
	var err error
	k.SpawnProcess("floor", graft.Root, func(p *kernel.Process) {
		txnFloor, err = timeFloor(iters, func() error {
			return k.Txns.Run(p.Thread, func(*txn.Txn) error { return nil })
		})
	})
	if rerr := k.Run(); rerr != nil {
		return nil, rerr
	}
	if err != nil {
		return nil, err
	}
	out["txn.run_floor_ns"] = txnFloor

	sup := guard.New(simclock.New(0), nil, neverEscalate)
	const key = "file/1.compute-ra#bench-ra"
	d, _ := timeFloor(iters, func() error {
		sup.Admit(key)
		sup.RecordCommit(key)
		return nil
	})
	out["guard.admit_commit_ns"] = d

	clock := simclock.New(0)
	fire := func() {}
	d, _ = timeFloor(iters, func() error {
		clock.Cancel(clock.After(graft.DefaultWatchdog, fire))
		return nil
	})
	out["simclock.after_cancel_ns"] = d
	return out, nil
}
