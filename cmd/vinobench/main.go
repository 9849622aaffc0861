// Command vinobench regenerates every table and figure of the paper's
// evaluation (§4) on the simulated kernel and prints measured-vs-paper
// values.
//
// Usage:
//
//	vinobench -all
//	vinobench -table 3        # Tables 3..7
//	vinobench -sweep abort    # the §4.5 abort-cost model
//	vinobench -sweep readahead
//	vinobench -sweep eviction
//	vinobench -sweep smp      # multi-CPU throughput scaling
//	vinobench -sweep smp -ncpu 8   # sweep 1,2,4,8 simulated CPUs
//	vinobench -sweep sfi           # SFI check cost; exit 1 if translation misses its 2x gate
//	vinobench -sweep campaign      # chaos-campaign runs/sec vs worker-pool size; exit 1 if a coverage map differs
//	vinobench -sweep campaign -workers 8 -runs 64
//	vinobench -sweep fleet         # fleet requests/sec vs instance and tenant count; exit 1 on a failed audit
//	vinobench -sweep fleet -instances 4 -tenants 4
//	vinobench -ablation lock  # Figures 4/5 policy-encapsulation cost
//	vinobench -ablation sfidensity
//	vinobench -check          # semantic cross-checks (SFI-rewrite equivalence)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"vino/internal/campaign"
	"vino/internal/fleet"
	"vino/internal/harness"
)

func main() {
	all := flag.Bool("all", false, "run every experiment")
	table := flag.Int("table", 0, "reproduce one paper table (3-7)")
	sweep := flag.String("sweep", "", "parameter sweep: abort | readahead | eviction | timeout | smp | sfi | campaign | fleet")
	ablation := flag.String("ablation", "", "design-choice ablation: lock | sfidensity | misfitopt | txn")
	check := flag.Bool("check", false, "run semantic cross-checks")
	jsonOut := flag.Bool("json", false, "sweep sfi: emit the result as JSON (for checked-in baselines)")
	ncpu := flag.Int("ncpu", 4, "smp sweep: largest simulated CPU count (sweeps powers of two up to it)")
	workers := flag.Int("workers", 8, "campaign sweep: largest worker-pool size (sweeps powers of two up to it)")
	runs := flag.Int("runs", 64, "campaign sweep: run budget per point")
	instances := flag.Int("instances", 4, "fleet sweep: largest instance count (sweeps powers of two up to it)")
	fleetTenants := flag.Int("tenants", 4, "fleet sweep: largest tenant count (sweeps powers of two up to it)")
	flag.Parse()

	ran := false
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "vinobench:", err)
		os.Exit(1)
	}

	runTable := func(n int) {
		ran = true
		switch n {
		case 3:
			t, err := harness.ReadAheadTable()
			if err != nil {
				fail(err)
			}
			fmt.Println(t)
		case 4:
			t, err := harness.PageEvictionTable()
			if err != nil {
				fail(err)
			}
			fmt.Println(t)
		case 5:
			t, err := harness.SchedulingTable()
			if err != nil {
				fail(err)
			}
			fmt.Println(t)
		case 6:
			t, err := harness.EncryptionTable()
			if err != nil {
				fail(err)
			}
			fmt.Println(t)
		case 7:
			t, err := harness.BuildAbortTable()
			if err != nil {
				fail(err)
			}
			fmt.Println(t)
		default:
			fail(fmt.Errorf("no such table %d (paper evaluation tables are 3-7)", n))
		}
	}

	runSweep := func(name string) {
		ran = true
		switch name {
		case "abort":
			pts, err := harness.AbortCostSweep(8, 8)
			if err != nil {
				fail(err)
			}
			fmt.Println("Abort-cost model (s4.5): abort = 35us + 10us*L + c*G")
			fmt.Printf("%6s %6s %14s %12s\n", "locks", "undos", "measured (us)", "model (us)")
			for _, p := range pts {
				fmt.Printf("%6d %6d %14.1f %12.1f\n", p.Locks, p.Undos, p.MeasUS, p.ModelUS)
			}
			fmt.Println()
		case "readahead":
			pts, err := harness.ReadAheadWinSweep(nil)
			if err != nil {
				fail(err)
			}
			fmt.Println(harness.FormatRAWinSweep(pts))
		case "eviction":
			cb, err := harness.BuildEvictionCostBenefit()
			if err != nil {
				fail(err)
			}
			fmt.Println(cb)
		case "timeout":
			pts, err := harness.TimeoutSweep(nil)
			if err != nil {
				fail(err)
			}
			fmt.Println(harness.FormatTimeoutSweep(pts))
		case "smp":
			s, err := harness.SMPTable(pow2(max(*ncpu, 1)), 32)
			if err != nil {
				fail(err)
			}
			fmt.Println(s)
		case "sfi":
			res, err := harness.SFIOverheadSweep(0)
			if err != nil {
				fail(err)
			}
			if *jsonOut {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				if err := enc.Encode(res); err != nil {
					fail(err)
				}
			} else {
				fmt.Println(res)
				fmt.Println(res.HostSummary())
			}
			if oi, ot, ok := res.Overhead(); !ok {
				fail(fmt.Errorf("sfi gate failed: translated compartment overhead %.1f ns/access is not at most half the interpreted %.1f", ot, oi))
			}
		case "campaign":
			pts, err := campaign.ThroughputSweep(1, *runs, pow2(*workers))
			if err != nil {
				fail(err)
			}
			fmt.Println(campaign.FormatThroughputSweep(pts))
			for _, p := range pts {
				if !p.Identical {
					fail(fmt.Errorf("campaign sweep: the coverage map at %d workers differs from the baseline", p.Workers))
				}
			}
		case "fleet":
			pts, err := fleet.ThroughputSweep(1, pow2(max(*instances, 1)), pow2(max(*fleetTenants, 1)))
			if err != nil {
				fail(err)
			}
			fmt.Println(fleet.FormatThroughputSweep(pts))
			for _, p := range pts {
				if !p.Clean {
					fail(fmt.Errorf("fleet sweep: %d instances x %d tenants failed the audit", p.Instances, p.Tenants))
				}
			}
		default:
			fail(fmt.Errorf("unknown sweep %q", name))
		}
	}

	runAblation := func(name string) {
		ran = true
		switch name {
		case "lock":
			r, err := harness.LockManagerAblation(2000)
			if err != nil {
				fail(err)
			}
			fmt.Println(r)
		case "txn":
			r, err := harness.TxnProtectionAblation()
			if err != nil {
				fail(err)
			}
			fmt.Println(r)
		case "misfitopt":
			pts, err := harness.MisfitOptimizerAblation()
			if err != nil {
				fail(err)
			}
			fmt.Println(harness.FormatOptAblation(pts))
		case "sfidensity":
			pts, err := harness.SFIDensitySweep()
			if err != nil {
				fail(err)
			}
			fmt.Println("SFI overhead vs memory-access density (s4.4)")
			fmt.Printf("%10s %12s %12s %8s\n", "mem/iter", "unsafe (us)", "safe (us)", "ratio")
			for _, p := range pts {
				fmt.Printf("%10d %12.1f %12.1f %8.2f\n", p.MemOpsPerIteration, p.UnsafeUS, p.SafeUS, p.Ratio)
			}
			fmt.Println()
		default:
			fail(fmt.Errorf("unknown ablation %q", name))
		}
	}

	if *check || *all {
		ran = true
		if err := harness.EncryptionCorrectness(); err != nil {
			fail(err)
		}
		fmt.Println("check: SFI-rewritten and unprotected encryption grafts produce identical output — OK")
		fmt.Println()
	}
	if *all {
		for n := 3; n <= 7; n++ {
			runTable(n)
		}
		runSweep("abort")
		runSweep("readahead")
		runSweep("eviction")
		runSweep("timeout")
		runSweep("smp")
		runSweep("sfi")
		runSweep("campaign")
		runAblation("lock")
		runAblation("sfidensity")
		runAblation("misfitopt")
		runAblation("txn")
		return
	}
	if *table != 0 {
		runTable(*table)
	}
	if *sweep != "" {
		runSweep(*sweep)
	}
	if *ablation != "" {
		runAblation(*ablation)
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// pow2 returns the powers of two up to limit, ascending; none when
// limit is below one, so a sweep falls back to its own default grid.
func pow2(limit int) []int {
	var out []int
	for n := 1; n <= limit; n *= 2 {
		out = append(out, n)
	}
	return out
}
