package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the smoke tests spawn measuring children.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// smoke runs the benchmark at a tiny scale, where every pass shrinks to
// one or a few ops.
func smoke(t *testing.T, args ...string) (string, []record) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "runs.json")
	var out bytes.Buffer
	args = append([]string{"-scale", "0.002", "-seed", "7", "-json", path}, args...)
	if code := run(args, &out); code != 0 {
		t.Fatalf("bench %v exited %d:\n%s", args, code, out.String())
	}
	recs, err := readRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), recs
}

// printed parses "workload metric value unit" lines.
func printed(t *testing.T, out string) map[string]valueUnit {
	t.Helper()
	got := map[string]valueUnit{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 {
			t.Fatalf("malformed line %q", line)
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		got[f[0]+" "+f[1]] = valueUnit{v, f[3]}
	}
	return got
}

func TestSmokeEndToEnd(t *testing.T) {
	out, recs := smoke(t, "-seconds", "0")
	lines := printed(t, out)
	if len(recs) != len(workloads) {
		t.Fatalf("%d records, want %d", len(recs), len(workloads))
	}
	for i, w := range workloads {
		r := recs[i]
		if r.Workload != w.name || !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: record %+v", w.name, r)
		}
		for _, m := range endToEnd {
			line, ok := lines[w.name+" "+m.Name]
			if !ok || line.Unit != m.Unit {
				t.Errorf("%s %s: printed %+v, want unit %s", w.name, m.Name, line, m.Unit)
				continue
			}
			if r.Metrics[m.Name] != line {
				t.Errorf("%s %s: JSON %+v, printed %+v", w.name, m.Name, r.Metrics[m.Name], line)
			}
			if line.Value <= 0 {
				t.Errorf("%s %s = %v, want > 0", w.name, m.Name, line.Value)
			}
		}
	}
}

// deterministic are the per-layer metrics that count simulator work
// rather than time it; the same seed must give the same values.
func deterministic(name string) bool {
	return strings.HasSuffix(name, "_per_op") && name != "runtime.allocs_per_op" ||
		strings.HasPrefix(name, "fleet.") || name == "crash.scoped_frac"
}

func TestSmokeTraced(t *testing.T) {
	// Each traced phase runs long enough for some CPU profile samples.
	out, recs := smoke(t, "-trace", "1", "-seconds", "0.3")
	_, again := smoke(t, "-trace", "1", "-seconds", "0.3")
	lines := printed(t, out)
	for i, w := range workloads {
		r := recs[i]
		if !r.Correct || r.Failed != 0 {
			t.Errorf("%s: record %+v", w.name, r)
		}
		v := func(name string) float64 { return r.Metrics[name].Value }
		var cpu float64
		for _, m := range perLayer {
			if line, ok := lines[w.name+" "+m.Name]; !ok || line.Unit != m.Unit {
				t.Errorf("%s %s: printed %+v, want unit %s", w.name, m.Name, line, m.Unit)
			}
			if strings.HasPrefix(m.Name, "cpu.") {
				cpu += v(m.Name)
			}
			if a := again[i].Metrics[m.Name].Value; deterministic(m.Name) && math.Abs(a-v(m.Name)) > 1e-9*math.Abs(a) {
				t.Errorf("%s %s: %v then %v on the same seed", w.name, m.Name, v(m.Name), a)
			}
		}
		if math.Abs(cpu-1) > 0.01 {
			t.Errorf("%s: cpu shares sum to %v", w.name, cpu)
		}
		children := v("graft.enter_ns") + v("sfi.exec_ns") + v("graft.exit_ns") + v("txn.abort_ns") + v("graft.default_ns")
		if strings.HasPrefix(w.name, "dispatch") {
			if self := v("graft.invoke_ns") - children; self < -1e-6*children || children < 0.9*v("graft.invoke_ns") {
				t.Errorf("%s: invoke %v ns, children %v ns", w.name, v("graft.invoke_ns"), children)
			}
		}
		if v("fs.read_self_ns") < 0 {
			t.Errorf("%s: negative read self time %v", w.name, v("fs.read_self_ns"))
		}
	}
}

// TestOraclesCatchWrongOutputs corrupts the reference a workload checks
// against and expects the check to fail.
func TestOraclesCatchWrongOutputs(t *testing.T) {
	o := opts{seed: 1, scale: 0.002, tmpDir: t.TempDir()}
	err := startDispatch(false)(o, func(inst instance) error {
		d := inst.(*dispatch)
		d.want[0]++
		d.op(0)
		if d.check() == nil {
			t.Error("dispatch oracle accepted a wrong read-ahead answer")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = startFilter(o, func(inst instance) error {
		f := inst.(*filter)
		f.want[f.order[0]*filterChunk+3] ^= 1
		f.op(0)
		if f.check() == nil {
			t.Error("filter oracle accepted a wrong byte")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"vino/internal/graft.(*Point).Invoke":           "graft",
		"vino/internal/sfi.(*Program).run.func1":        "sfi",
		"vino/internal/campaign.Run":                    "other",
		"runtime.mallocgc":                              "runtime",
		"internal/runtime/maps.(*Map).Delete":           "runtime",
		"aeshashbody":                                   "runtime",
		"internal/runtime/syscall.Syscall6":             "syscall",
		"os.(*File).Write":                              "syscall",
		"encoding/gob.(*Encoder).Encode":                "gob",
		"reflect.Value.Field":                           "gob",
		"sort.Slice":                                    "other",
		"slices.SortFunc[go.shape.[]vino/internal/x.T]": "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %s, want %s", fn, got, want)
		}
	}
}

func TestCPUSharesOfARealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	x := 0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x ^= i * i
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err, x)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 || shares["cpu.other_frac"] == 0 {
		t.Errorf("shares %v sum to %v", shares, sum)
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json in step
// with the metrics and workloads this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s here", i, b.Workloads[i].Name, w.name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if e := b.EndToEnd[i]; e.Name != m.Name || e.Unit != m.Unit || e.Better != m.Better || e.Bound != m.Bound {
			t.Errorf("end_to_end %d: %+v in BENCHMARK.json, %+v here", i, e, m)
		}
	}
	for i, m := range perLayer {
		if e := b.PerLayer[i]; e.Name != m.Name || e.Unit != m.Unit || e.Better != m.Better {
			t.Errorf("per_layer %d: %+v in BENCHMARK.json, %+v here", i, e, m)
		}
	}
}
