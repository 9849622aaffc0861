package main

// `vinosim redteam`: run the adversarial SFI escape corpus. Every
// attack image must be rejected by the verifier or contained at
// runtime with the kernel-memory and read-only-region sentinel audits
// intact; the command exits non-zero on any escape or on a case that
// slipped past its expected layer. The report is byte-identical for a
// fixed -seed at any -workers and on either VM engine
// (TestReportDeterministicAcrossWorkers, TestReportIdenticalAcrossEngines);
// -report writes it to a file for comparing runs by hand.

import (
	"flag"
	"fmt"
	"os"

	vino "vino"
)

func cmdRedTeam(args []string) int {
	fs := flag.NewFlagSet("vinosim redteam", flag.ExitOnError)
	seed := fs.Int64("seed", 7, "sentinel-pattern seed (the case set is seed-independent)")
	workers := fs.Int("workers", 1, "worker-pool size (wall-clock only; the report is identical at any value)")
	report := fs.String("report", "", "also write the summary to this file")
	fs.Parse(args)

	res := vino.RunRedTeam(vino.RedTeamConfig{Seed: *seed, Workers: *workers})
	sum := res.Summary()
	fmt.Print(sum)
	if *report != "" {
		if err := os.WriteFile(*report, []byte(sum), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "redteam: %v\n", err)
			return 1
		}
		fmt.Printf("redteam: report written to %s\n", *report)
	}
	if !res.Clean() {
		fmt.Fprintf(os.Stderr, "redteam: %d escape(s), %d case(s) off their expected layer\n",
			res.Escapes, res.Mismatches)
		return 1
	}
	return 0
}
