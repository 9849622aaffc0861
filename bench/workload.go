package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"
)

// opts configures one set-up workload.
type opts struct {
	seed  int64
	scale float64
	// traced installs the span hooks on the workload's graft points.
	traced bool
	// tmpDir is the scratch root for workloads that write files.
	tmpDir string
}

// scaled shrinks a count by the run's scale, never below one.
func (o opts) scaled(n int) int {
	if m := int(float64(n) * o.scale); m >= 1 {
		return m
	}
	return 1
}

// instance is a workload that has been set up and is ready to run ops.
// Every method is called from the goroutine body runs on.
type instance interface {
	// passLen is the number of ops in one pass over the seeded inputs.
	// A phase runs whole passes, so per-op counts repeat exactly.
	passLen() int
	// warmup is how many ops run before timing starts.
	warmup() int
	// op runs op i of the pass and returns its host latency and whether
	// the system failed it. A wrong output is not a failure: the op
	// records it for check.
	op(i int) (lat time.Duration, failed bool)
	// addCounters adds the workload's cumulative counters and span sums
	// to c, keyed by per-layer metric name or by a raw name that
	// layerMetrics turns into a ratio.
	addCounters(c map[string]float64)
	// check returns the first wrong output seen, if any.
	check() error
	// callFloor is the host nanoseconds of one call of the workload's
	// graft image on a bare translated VM with no kernel around it.
	callFloor(iters int) (float64, error)
}

// workload is one benchmark workload. start sets it up and calls body
// with the instance from the context its ops must run in (kernel
// workloads run body on a kernel thread). Every block of a timed phase
// runs at least blockOps ops, so each block has the samples for the
// tail percentile it reports (p99 needs 1000, p90 100) and that
// percentile is the same on every run.
type workload struct {
	name     string
	blockOps int
	start    func(o opts, body func(instance) error) error
}

// workloads are described, with why each was chosen, in README.md and
// BENCHMARK.json.
var workloads = []workload{
	{"dispatch-commit", 1000, startDispatch(false)},
	{"dispatch-abort", 1000, startDispatch(true)},
	{"filter-stream", 1000, startFilter},
	{"fleet", 100, startFleet},
	{"chaos-crash", 100, startChaos},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// permutation returns a seeded order of 0..n-1.
func permutation(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// phase is what one timed run of whole blocks measured.
type phase struct {
	ops, failed, blocks int
	wall                time.Duration
	counters            map[string]float64 // deltas over the phase
	allocBytes          uint64
	mallocs             uint64
	gcFrac              float64 // GC CPU over total CPU

	// The best value each host-timed metric reached in any one block.
	bestTput          float64
	bestP50, bestTail int64
	tailPct           int
}

func (p *phase) throughput() float64 { return float64(p.ops) / p.wall.Seconds() }

// addBlock folds one block's throughput and latencies into the best
// values seen.
func (p *phase) addBlock(ops int, wall time.Duration, lat *latencies) {
	p.blocks++
	p.tailPct = tailPercentile(lat.n)
	p50, tail := lat.percentile(50), lat.percentile(p.tailPct)
	if tput := float64(ops) / wall.Seconds(); tput > p.bestTput {
		p.bestTput = tput
	}
	if p.blocks == 1 || p50 < p.bestP50 {
		p.bestP50 = p50
	}
	if p.blocks == 1 || tail < p.bestTail {
		p.bestTail = tail
	}
}

// warm runs the instance's warm-up ops and reports how many failed.
func warm(inst instance) int {
	failed := 0
	for i := 0; i < inst.warmup(); i++ {
		if _, f := inst.op(i % inst.passLen()); f {
			failed++
		}
	}
	return failed
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// runPhase runs blocks of whole passes until minDur has elapsed. A
// block lasts at least 100 ms (less in runs shorter than 0.8 s) and
// runs at least blockOps ops.
//
// The host-timed metrics report the best block, not the whole phase.
// On the shared machine the benchmark was defined on, memory-heavy code
// ran up to twice as slow for stretches of a fraction of a second to
// minutes, while an arithmetic loop did not slow at all. Slowdowns only
// add time, and most runs still contain quiet blocks, so the best block
// of a run sits near the machine's floor and moves far less between
// runs than any whole-run statistic. Over ten-run sets of 15-second
// runs, the spread of the dispatch median latency was 12-56% of the
// median for the whole run, and 4-8% for the best block.
func runPhase(inst instance, minDur time.Duration, blockOps int) *phase {
	p := &phase{counters: map[string]float64{}}
	before := map[string]float64{}
	inst.addCounters(before)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	metrics.Read(cpuMetrics)
	gc0, cpu0 := cpuMetrics[0].Value.Float64(), cpuMetrics[1].Value.Float64()

	n := inst.passLen()
	blockDur := min(100*time.Millisecond, minDur/8)
	lat := new(latencies)
	start := time.Now()
	for p.blocks == 0 || p.wall < minDur {
		lat.reset()
		b0 := time.Now()
		ops := 0
		for ops < blockOps || time.Since(b0) < blockDur {
			for i := 0; i < n; i++ {
				d, failed := inst.op(i)
				lat.add(d)
				if failed {
					p.failed++
				}
			}
			ops += n
		}
		p.addBlock(ops, time.Since(b0), lat)
		p.ops += ops
		p.wall = time.Since(start)
	}

	runtime.ReadMemStats(&ms1)
	metrics.Read(cpuMetrics)
	if cpu := cpuMetrics[1].Value.Float64() - cpu0; cpu > 0 {
		p.gcFrac = (cpuMetrics[0].Value.Float64() - gc0) / cpu
	}
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	inst.addCounters(p.counters)
	for k, v := range before {
		p.counters[k] -= v
	}
	return p
}

// childResult is what a measuring child process reports to its parent.
type childResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Wrong     string             `json:"wrong,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Info carries numbers printed beside the metrics but not compared:
	// which tail percentile was reported and over how many samples.
	Info map[string]float64 `json:"info,omitempty"`
}

func (r *childResult) noteWrong(err error) {
	if err != nil && r.Correct {
		r.Correct = false
		r.Wrong = err.Error()
	}
}

// runUntraced is the measuring child of an end-to-end run: set up,
// signal ready, warm up, then time whole blocks for the run's duration.
// Set-up time and peak RSS are measured by the parent.
func runUntraced(w workload, o opts, dur time.Duration, ready func()) (*childResult, error) {
	res := &childResult{Correct: true, Metrics: map[string]float64{}, Info: map[string]float64{}}
	err := w.start(o, func(inst instance) error {
		ready()
		res.Failed = warm(inst)
		res.Attempted = inst.warmup()
		p := runPhase(inst, dur, o.scaled(w.blockOps))
		res.Attempted += p.ops
		res.Failed += p.failed
		res.noteWrong(inst.check())
		res.Metrics["throughput_ops_s"] = p.bestTput
		res.Metrics["latency_p50_us"] = float64(p.bestP50) / 1e3
		res.Metrics["latency_tail_us"] = float64(p.bestTail) / 1e3
		res.Metrics["alloc_bytes_per_op"] = float64(p.allocBytes) / float64(p.ops)
		res.Info["latency_tail_pct"] = float64(p.tailPct)
		res.Info["samples"] = float64(p.ops)
		res.Info["blocks"] = float64(p.blocks)
		return nil
	})
	return res, err
}

// runTraced is the measuring child of a traced run. Its first half runs
// untraced under the CPU profiler, for the per-package CPU shares, the
// runtime counters and the reference throughput; its second half sets
// the workload up again with span hooks installed and reads the spans
// and each layer's public counters; then it times the layer floors.
func runTraced(w workload, o opts, dur time.Duration) (*childResult, error) {
	res := &childResult{Correct: true, Metrics: map[string]float64{}}
	for _, m := range perLayer {
		res.Metrics[m.Name] = 0
	}
	var untracedTput float64
	err := w.start(o, func(inst instance) error {
		res.Failed = warm(inst)
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
		p := runPhase(inst, dur/2, o.scaled(w.blockOps))
		pprof.StopCPUProfile()
		res.Attempted = inst.warmup() + p.ops
		res.Failed += p.failed
		res.noteWrong(inst.check())
		untracedTput = p.throughput()
		res.Metrics["runtime.allocs_per_op"] = float64(p.mallocs) / float64(p.ops)
		res.Metrics["runtime.gc_cpu_frac"] = p.gcFrac
		shares, err := cpuShares(prof.Bytes())
		if err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		for k, v := range shares {
			res.Metrics[k] = v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.traced = true
	err = w.start(o, func(inst instance) error {
		res.Failed += warm(inst)
		p := runPhase(inst, dur/2, o.scaled(w.blockOps))
		res.Attempted += inst.warmup() + p.ops
		res.Failed += p.failed
		res.noteWrong(inst.check())
		for k, v := range layerMetrics(p.counters, p.ops) {
			res.Metrics[k] = v
		}
		res.Metrics["bench.trace_overhead_frac"] = 1 - p.throughput()/untracedTput
		floor, err := inst.callFloor(o.scaled(20000))
		if err != nil {
			return fmt.Errorf("sfi call floor: %w", err)
		}
		res.Metrics["sfi.call_floor_ns"] = floor
		return nil
	})
	if err != nil {
		return nil, err
	}
	floors, err := layerFloors(o.scaled(200000))
	if err != nil {
		return nil, err
	}
	for k, v := range floors {
		res.Metrics[k] = v
	}
	return res, nil
}

// layerMetrics turns a phase's counter deltas into per-layer metrics:
// sums keyed by metric name become per-op values, raw outcome counts
// become shares.
func layerMetrics(c map[string]float64, ops int) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		if v, ok := c[m.Name]; ok {
			out[m.Name] = v / float64(ops)
		}
	}
	if n := c["crash.scoped"] + c["crash.widened"]; n > 0 {
		out["crash.scoped_frac"] = c["crash.scoped"] / n
	}
	if n := c["fleet.arrivals"]; n > 0 {
		out["fleet.served_frac"] = c["fleet.served"] / n
		out["fleet.shed_frac"] = c["fleet.shed"] / n
		out["fleet.failed_frac"] = c["fleet.failed"] / n
	}
	return out
}

// errSpan reports a traced op whose hooks did not all fire in order.
var errSpan = errors.New("span hooks fired out of order")
