package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of -compare for one (end-to-end metric, workload) pair.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// better reports whether a reads better than b for the metric.
func better(m metric, a, b float64) bool {
	if m.Better == "higher" {
		return a > b
	}
	return a < b
}

// judge applies the acceptance rule and returns how many of the pairs
// the change won, and its verdict. Run i of the parent is paired with
// run i of the change; a gain needs the change to win at least nine
// tenths of the pairs and the medians to differ by more than the
// parent's interquartile range; a regression is a change median worse
// than the parent's by more than the bound. A spread (interquartile
// range over median) on either side wider than the bound leaves the
// pair unresolved, unless every change run beats every parent run.
func judge(m metric, parent, change []float64) (won, pairs int, verdict string) {
	pairs = min(len(parent), len(change))
	for i := 0; i < pairs; i++ {
		if better(m, change[i], parent[i]) {
			won++
		}
	}
	pm, cm := median(parent), median(change)
	pq1, pq3 := quartiles(parent)
	cq1, cq3 := quartiles(change)
	allBetter := true
	for _, p := range parent {
		for _, ch := range change {
			allBetter = allBetter && better(m, ch, p)
		}
	}
	worse := (cm - pm) / pm
	if m.Better == "higher" {
		worse = -worse
	}
	spread := math.Max((pq3-pq1)/pm, (cq3-cq1)/cm)
	switch {
	case pairs > 0 && 10*won >= 9*pairs && better(m, cm, pm) && math.Abs(cm-pm) > pq3-pq1:
		verdict = improved
	case spread > m.Bound && !allBetter:
		verdict = unresolved
	case worse > m.Bound:
		verdict = regressed
	default:
		verdict = unchanged
	}
	return won, pairs, verdict
}

// readRecords loads a file written by -json, in file order.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// untraced groups a file's untraced records by workload.
func untraced(path string) (map[string][]record, error) {
	recs, err := readRecords(path)
	out := map[string][]record{}
	for _, r := range recs {
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, err
}

// compareFiles prints, for every end-to-end metric on every workload
// both files hold, each side's median and quartiles, the share of pairs
// the change won, and the verdict. It reports whether any regressed.
func compareFiles(parentPath, changePath string, w io.Writer) (bool, error) {
	parent, err := untraced(parentPath)
	if err != nil {
		return false, err
	}
	change, err := untraced(changePath)
	if err != nil {
		return false, err
	}
	anyRegressed := false
	fmt.Fprintf(w, "%-16s %-18s %34s %34s %7s  %s\n", "workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "won", "verdict")
	for _, wl := range workloads {
		ps, cs := parent[wl.name], change[wl.name]
		if len(ps) == 0 || len(cs) == 0 {
			continue
		}
		for _, m := range endToEnd {
			pv, cv := values(ps, m.Name), values(cs, m.Name)
			won, pairs, verdict := judge(m, pv, cv)
			pq1, pq3 := quartiles(pv)
			cq1, cq3 := quartiles(cv)
			fmt.Fprintf(w, "%-16s %-18s %34s %34s %7s  %s\n", wl.name, m.Name,
				fmt.Sprintf("%.4g [%.4g %.4g]", median(pv), pq1, pq3),
				fmt.Sprintf("%.4g [%.4g %.4g]", median(cv), cq1, cq3),
				fmt.Sprintf("%d/%d", won, pairs), verdict)
			anyRegressed = anyRegressed || verdict == regressed
		}
	}
	return anyRegressed, nil
}

func values(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, r.Metrics[name].Value)
	}
	return out
}
