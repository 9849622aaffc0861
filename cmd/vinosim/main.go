// Command vinosim drives the simulated VINO kernel through its
// subcommands:
//
//	vinosim run                        # every narrated scenario from §2
//	vinosim run hoard                  # one scenario
//	vinosim run -list
//	vinosim chaos -seed=7              # scheduled fault injection + survival audit
//	vinosim chaos -seed=7 -faults=disk,lock -extended -guard
//	vinosim chaos -faultfile=p.txt     # replay a saved/edited plan
//	vinosim crash -seed=7              # chaos with the crash phase armed:
//	                                   # injected kernel panics contained & recovered
//	vinosim crash -seed=7 -checkpoint-ring=3 -recover-scope=graft
//	vinosim crash -seed=7 -norecover   # first panic is fatal (reproducer mode)
//	vinosim minimize -seed=7 -out=min.faultplan
//	                                   # delta-debug a failing plan to a minimal reproducer
//	vinosim campaign -seed=1 -runs=256 -shards=8 -corpus=corpus/
//	                                   # coverage-guided chaos fuzzing campaign
//	vinosim fleet -seed=7 -instances=2 # multi-tenant fleet: traffic, crash
//	                                   # faults, instance replacement, tenant
//	                                   # escalation, fleet-level audit
//	vinosim redteam -seed=7            # adversarial SFI escape corpus
package main

import (
	"fmt"
	"os"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		// Bare `vinosim` has always run every scenario; keep that.
		os.Exit(runScenarios(""))
	}
	switch args[0] {
	case "run":
		os.Exit(cmdRun(args[1:]))
	case "chaos":
		os.Exit(cmdChaos(args[1:]))
	case "crash":
		os.Exit(cmdCrash(args[1:]))
	case "minimize":
		os.Exit(cmdMinimize(args[1:]))
	case "campaign":
		os.Exit(cmdCampaign(args[1:]))
	case "fleet":
		os.Exit(cmdFleet(args[1:]))
	case "redteam":
		os.Exit(cmdRedTeam(args[1:]))
	case "help", "-h", "--help", "-help":
		usage(os.Stdout)
		return
	}
	fmt.Fprintf(os.Stderr, "vinosim: unknown command %q\n\n", args[0])
	usage(os.Stderr)
	os.Exit(2)
}

func usage(w *os.File) {
	fmt.Fprint(w, `usage: vinosim <command> [flags]

Commands:
  run        narrated misbehavior scenarios (run -list to enumerate)
  chaos      scheduled fault injection + survival audit
  crash      chaos with the crash phase armed (panic containment & recovery)
  minimize   delta-debug a failing fault plan to a minimal reproducer
  campaign   coverage-guided chaos fuzzing campaign
  fleet      multi-tenant fleet: tenant isolation, self-healing instances
  redteam    adversarial SFI escape corpus (verify-reject or contain; 0 escapes)

Run 'vinosim <command> -h' for that command's flags.
`)
}
