// Command bench is the repository benchmark. It runs five closed-loop
// workloads, from one graft dispatch to one fleet run, each in its own
// child process, checks their outputs against references, and prints
// every metric as "workload metric value unit". See README.md.
//
// From the repository root:
//
//	bash bench/run.sh                           # all five workloads
//	bash bench/run.sh -workload fleet -seed 3   # one; last line is JSON
//	bash bench/run.sh -trace 1                  # per-layer metrics
//	bash bench/run.sh -compare parent.json change.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// setupProbes is how many extra children only set a workload up, so
// that setup_s is a median rather than one noisy sample.
const setupProbes = 9

type config struct {
	seed    int64
	seconds float64
	trace   int
	scale   float64
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: all five, one after another)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 6, "minimum seconds each run measures, in whole passes over its inputs")
	trace := fs.Int("trace", 0, "1 runs the traced run, which reports the per-layer metrics")
	jsonPath := fs.String("json", "", "append one JSON record per workload run to this file")
	cmp := fs.Bool("compare", false, "compare two files written by -json: -compare parent.json change.json")
	scale := fs.Float64("scale", 1, "shrink every pass and warm-up by this factor (for tests)")
	child := fs.String("child", "", "internal: run as a measuring child (setup, run or trace)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two files")
			return 2
		}
		regressed, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		if regressed {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: -trace is 0 or 1")
		return 2
	}
	c := config{seed: *seed, seconds: *seconds, trace: *trace, scale: *scale}
	o := opts{seed: c.seed, scale: c.scale}
	if *child != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		return childMain(*child, w, o, time.Duration(c.seconds*float64(time.Second)), stdout)
	}

	todo := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 2
		}
		todo = []workload{w}
	}
	status := 0
	for _, w := range todo {
		rec, err := measure(w, c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		rec.print(stdout)
		if *jsonPath != "" {
			if err := appendRecord(*jsonPath, rec); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
		}
		if !rec.Correct {
			fmt.Fprintf(os.Stderr, "bench: %s: wrong output: %s\n", w.name, rec.Wrong)
			status = 1
		}
		if len(todo) == 1 {
			rec.printResult(stdout)
		}
	}
	return status
}

// valueUnit is one metric as printed.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one workload run as the parent reports it.
type record struct {
	Workload  string               `json:"workload"`
	Seed      int64                `json:"seed"`
	Trace     int                  `json:"trace"`
	Correct   bool                 `json:"correct"`
	Wrong     string               `json:"wrong,omitempty"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
	info      map[string]float64
	defs      []metric
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// print writes every metric as "workload metric value unit", in
// definition order, then the tail percentile reported and the samples
// and blocks behind the latencies.
func (r *record) print(w io.Writer) {
	for _, m := range r.defs {
		fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, m.Name, formatFloat(r.Metrics[m.Name].Value), m.Unit)
	}
	if p, ok := r.info["latency_tail_pct"]; ok {
		fmt.Fprintf(w, "%s latency_tail_pct %s pct\n", r.Workload, formatFloat(p))
		fmt.Fprintf(w, "%s samples %s count\n", r.Workload, formatFloat(r.info["samples"]))
		fmt.Fprintf(w, "%s blocks %s count\n", r.Workload, formatFloat(r.info["blocks"]))
	}
}

// printResult writes the one-line JSON result a single-workload run
// ends with.
func (r *record) printResult(w io.Writer) {
	line, _ := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}

func appendRecord(path string, r *record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// measure runs one workload. Untraced, setup_s is the median of the
// measuring child's set-up time and setupProbes children that only set
// up, each timed by the parent from process start to "ready", so
// package initialisation counts too; peak_rss_mb is the measuring
// child's.
func measure(w workload, c config) (*record, error) {
	rec := &record{Workload: w.name, Seed: c.seed, Trace: c.trace, Metrics: map[string]valueUnit{}}
	var res *childResult
	if c.trace == 1 {
		rec.defs = perLayer
		_, r, _, err := spawn(w, c, "trace")
		if err != nil {
			return nil, err
		}
		res = r
	} else {
		rec.defs = endToEnd
		var setups []float64
		for i := 0; i < setupProbes; i++ {
			s, _, _, err := spawn(w, c, "setup")
			if err != nil {
				return nil, err
			}
			setups = append(setups, s.Seconds())
		}
		s, r, rssKiB, err := spawn(w, c, "run")
		if err != nil {
			return nil, err
		}
		res = r
		res.Metrics["setup_s"] = median(append(setups, s.Seconds()))
		res.Metrics["peak_rss_mb"] = float64(rssKiB) / 1024
	}
	rec.Correct, rec.Wrong = res.Correct, res.Wrong
	rec.Attempted, rec.Failed = res.Attempted, res.Failed
	rec.info = res.Info
	for _, m := range rec.defs {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("child did not report %s", m.Name)
		}
		rec.Metrics[m.Name] = valueUnit{v, m.Unit}
	}
	return rec, nil
}

// spawn runs this binary as a child in the given mode and returns the
// time from starting it to its "ready" line, its result, and its peak
// resident set in KiB. The child is killed if this process dies first.
func spawn(w workload, c config, mode string) (time.Duration, *childResult, int64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, 0, err
	}
	cmd := exec.Command(exe, "-child", mode, "-workload", w.name,
		"-seed", strconv.FormatInt(c.seed, 10), "-seconds", formatFloat(c.seconds),
		"-scale", formatFloat(c.scale))
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, 0, err
	}
	var setup time.Duration
	var last []byte
	sc := bufio.NewScanner(out)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if setup == 0 && sc.Text() == "ready" {
			setup = time.Since(start)
			continue
		}
		last = append(last[:0], sc.Bytes()...)
	}
	scanErr := sc.Err()
	if err := cmd.Wait(); err != nil {
		return 0, nil, 0, fmt.Errorf("%s child: %w", mode, err)
	}
	if scanErr != nil {
		return 0, nil, 0, fmt.Errorf("%s child output: %w", mode, scanErr)
	}
	if setup == 0 && mode != "trace" {
		return 0, nil, 0, fmt.Errorf("%s child never reported ready", mode)
	}
	var res *childResult
	if mode != "setup" {
		res = new(childResult)
		if err := json.Unmarshal(last, res); err != nil {
			return 0, nil, 0, fmt.Errorf("%s child result: %w", mode, err)
		}
	}
	var rss int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss
	}
	return setup, res, rss, nil
}

// childMain is a measuring child: it writes "ready" once the workload
// is set up, and its result as the last line of its output.
func childMain(mode string, w workload, o opts, dur time.Duration, stdout io.Writer) int {
	tmp, err := os.MkdirTemp("", "vinobench-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	o.tmpDir = tmp
	ready := func() { fmt.Fprintln(stdout, "ready") }
	var res *childResult
	switch mode {
	case "setup":
		err = w.start(o, func(instance) error { ready(); return nil })
	case "run":
		res, err = runUntraced(w, o, dur, ready)
	case "trace":
		res, err = runTraced(w, o, dur)
	default:
		err = errors.New("unknown child mode " + mode)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	if res != nil {
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	return 0
}
