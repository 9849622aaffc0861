package harness

import (
	"fmt"
	"strings"
	"time"

	vfs "vino/internal/fs"
	"vino/internal/graft"
	"vino/internal/kernel"
)

// The checkpoint-cost sweep: does incremental capture actually make
// checkpoint cost proportional to the dirty state, not the kernel size?
// Each grid point builds a kernel whose file system holds a given state
// size (every block written once), re-dirties a given fraction of it,
// and measures one checkpoint capture under full-copy and incremental
// modes — wall-clock capture time plus the block payload the capture
// carries. Full-copy cost should track state size; incremental cost
// should track the dirty fraction.

// CheckpointCostPoint is one grid point of the sweep.
type CheckpointCostPoint struct {
	// Blocks is the state size: file blocks all written once.
	Blocks int
	// DirtyPct is the fraction of blocks re-dirtied before the capture.
	DirtyPct int
	// FullUS and IncrUS are mean wall-clock capture times (microseconds)
	// for one checkpoint in full-copy and incremental mode.
	FullUS, IncrUS float64
	// FullBytes and IncrBytes are the block payloads the two captures
	// carry.
	FullBytes, IncrBytes int64
	// Speedup is FullUS / IncrUS.
	Speedup float64
}

// checkpointCostEnv is one measurement kernel: a file of nblocks blocks,
// all written once, checkpointed, ready for re-dirty rounds.
type checkpointCostEnv struct {
	k    *kernel.Kernel
	fsys *vfs.FS
	file string
}

func newCheckpointCostEnv(nblocks int, fullCopy bool) (*checkpointCostEnv, error) {
	k := kernel.New(kernel.Config{
		Timeslice:       time.Hour,
		CheckpointEvery: time.Hour, // explicit Checkpoint() only
	})
	k.Crash.SetIncremental(!fullCopy)
	e := &checkpointCostEnv{k: k, file: "ckpt-db"}
	e.fsys = vfs.New(k, vfs.NewDisk(vfs.FujitsuM2694ESA()), nblocks+64)
	e.fsys.Create(e.file, int64(nblocks)*vfs.BlockSize, graft.Root, false)
	if err := e.writeBlocks(nblocks, 1, 0); err != nil {
		return nil, err
	}
	e.k.Checkpoint() // the base image holds the full state
	return e, nil
}

// writeBlocks writes every stride-th block of the first nblocks,
// starting at block phase, through the real write path (so dirty
// tracking stamps fire exactly as in a chaos run).
func (e *checkpointCostEnv) writeBlocks(nblocks, stride, phase int) error {
	var fail error
	e.k.SpawnProcess("ckpt-writer", graft.Root, func(p *kernel.Process) {
		t := p.Thread
		of, err := e.fsys.Open(t, e.file)
		if err != nil {
			fail = err
			return
		}
		defer of.Close()
		buf := make([]byte, vfs.BlockSize)
		for b := phase % stride; b < nblocks; b += stride {
			if _, err := of.WriteAt(t, buf, int64(b)*vfs.BlockSize); err != nil {
				fail = err
				return
			}
		}
	})
	if err := e.k.Run(); err != nil {
		return err
	}
	return fail
}

// dirtyStride converts a percentage to a write stride (100% -> every
// block, 10% -> every 10th, 1% -> every 100th).
func dirtyStride(pct int) int {
	if pct <= 0 {
		return 0
	}
	if pct >= 100 {
		return 1
	}
	return 100 / pct
}

// measureCheckpointCost runs `rounds` re-dirty+capture rounds in one
// mode and returns the mean capture time and the capture payload.
func measureCheckpointCost(nblocks, pct int, fullCopy bool) (us float64, bytes int64, err error) {
	e, err := newCheckpointCostEnv(nblocks, fullCopy)
	if err != nil {
		return 0, 0, err
	}
	stride := dirtyStride(pct)

	// Size the capture this grid point produces: the delta the manager
	// would ask for (incremental), or the whole image (full copy).
	if stride > 0 {
		if err := e.writeBlocks(nblocks, stride, 0); err != nil {
			return 0, 0, err
		}
	}
	if fullCopy {
		bytes = vfs.SnapshotBytes(e.fsys.CrashSnapshot())
	} else {
		bytes = vfs.SnapshotBytes(e.fsys.CrashDelta(e.k.Crash.Gen() - 1))
	}

	const rounds = 5
	var total time.Duration
	for r := 0; r < rounds; r++ {
		if r > 0 && stride > 0 {
			// Fresh dirt each round, phase-shifted so the same blocks
			// are not rewritten every time.
			if err := e.writeBlocks(nblocks, stride, r); err != nil {
				return 0, 0, err
			}
		}
		start := time.Now()
		e.k.Checkpoint()
		total += time.Since(start)
	}
	return float64(total) / rounds / float64(time.Microsecond), bytes, nil
}

// CheckpointCostSweep measures the dirty-fraction × state-size grid.
// Nil arguments take the default grid.
func CheckpointCostSweep(blocks []int, dirtyPcts []int) ([]CheckpointCostPoint, error) {
	if len(blocks) == 0 {
		blocks = []int{256, 1024, 4096}
	}
	if len(dirtyPcts) == 0 {
		dirtyPcts = []int{1, 10, 50, 100}
	}
	var out []CheckpointCostPoint
	for _, nb := range blocks {
		for _, pct := range dirtyPcts {
			fullUS, fullBytes, err := measureCheckpointCost(nb, pct, true)
			if err != nil {
				return nil, err
			}
			incrUS, incrBytes, err := measureCheckpointCost(nb, pct, false)
			if err != nil {
				return nil, err
			}
			p := CheckpointCostPoint{
				Blocks: nb, DirtyPct: pct,
				FullUS: fullUS, IncrUS: incrUS,
				FullBytes: fullBytes, IncrBytes: incrBytes,
			}
			if incrUS > 0 {
				p.Speedup = fullUS / incrUS
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// FormatCheckpointCostSweep renders the grid. Capture times are host
// wall-clock (this is a cost measurement, like a benchmark — not part
// of the deterministic virtual-time artifact).
func FormatCheckpointCostSweep(pts []CheckpointCostPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Checkpoint cost: capture cost vs dirty fraction (full copy / incremental)\n")
	fmt.Fprintf(&b, "%8s %7s %11s %11s %13s %13s %9s\n",
		"blocks", "dirty%", "full (us)", "incr (us)", "full (bytes)", "incr (bytes)", "speedup")
	for _, p := range pts {
		fmt.Fprintf(&b, "%8d %7d %11.1f %11.1f %13d %13d %8.1fx\n",
			p.Blocks, p.DirtyPct, p.FullUS, p.IncrUS, p.FullBytes, p.IncrBytes, p.Speedup)
	}
	return b.String()
}
