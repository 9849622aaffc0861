package harness

// The red-team phase: the adversarial SFI escape corpus plus an
// in-kernel compartment-violation probe. The corpus proves every attack
// image is stopped at its expected layer (verifier or VM) with intact
// sentinel audits; the probe proves an sfi-violation raised inside a
// real dispatch is absorbed by the chaos kernel — as a plain abort when
// crash containment is off, as a contained, recovered kernel panic when
// it is on.

import (
	"fmt"
	"time"

	"vino/internal/crash"
	"vino/internal/graft"
	"vino/internal/kernel"
	"vino/internal/redteam"
	"vino/internal/sched"
	"vino/internal/sfi"
)

// redteamProbeSrc stores into the read-only kernel-export region of the
// default compartment layout: the dispatch must trap, never corrupt.
const redteamProbeSrc = `
.name rtprobe
.func main
main:
    movi r1, 49152
    add r1, r1, r10
    st [r1+0], r2
    ret
`

const redteamProbeRounds = 3

func (c *chaosRun) phaseRedTeam() error {
	// Layer 1: the standalone corpus. Every case must land exactly on
	// its expected layer; an escape or a downgraded rejection is an
	// invariant violation like any other.
	res := redteam.Run(redteam.Config{Seed: c.cfg.Seed})
	c.report.RedTeam = res
	for _, v := range res.Verdicts {
		if !v.OK() {
			c.violate("redteam: case %s: got %s, want %s (%s)", v.Case, v.Got, v.Want, v.Detail)
		}
	}

	// Layer 2: the in-kernel probe. With checkpointing armed the
	// violation escalates to a classified kernel panic RunRecovered
	// must contain; without, it stays an ordinary abort and the base
	// path answers.
	k := c.k
	pt := k.Grafts.RegisterPoint(&graft.Point{
		Name: "redteam.probe",
		Kind: graft.Function,
		Default: func(th *sched.Thread, args []int64) (int64, error) {
			return -1, nil
		},
		Watchdog: 8 * time.Millisecond,
	})
	contained := k.Crash != nil
	if contained {
		k.Checkpoint() // a restore point even if the cadence never elapsed
	}
	panicsBefore := int64(0)
	if contained {
		panicsBefore = k.Crash.Stats().ByClass[crash.SFIViolation]
	}
	for i := 0; i < redteamProbeRounds; i++ {
		k.SpawnProcess(fmt.Sprintf("redteam-probe-%d", i), graft.Root, func(p *kernel.Process) {
			img, _, err := sfi.BuildCompartmented(redteamProbeSrc, k.Signer)
			if err != nil {
				c.violate("redteam: probe build: %v", err)
				return
			}
			if _, err := p.Install("redteam.probe", img, graft.InstallOptions{}); err != nil {
				// A guard ladder may have expelled the probe's key on an
				// earlier round; the bar holding is containment working.
				return
			}
			pt.Invoke(p.Thread)
		})
		if contained {
			if _, err := k.RunRecovered(); err != nil {
				return fmt.Errorf("probe round %d: %w", i, err)
			}
		} else if err := k.Run(); err != nil {
			return fmt.Errorf("probe round %d: %w", i, err)
		}
	}
	if contained {
		if got := k.Crash.Stats().ByClass[crash.SFIViolation] - panicsBefore; got == 0 {
			c.violate("redteam: probe dispatched %d violating rounds but no sfi-violation panic was contained", redteamProbeRounds)
		}
	}
	return nil
}
