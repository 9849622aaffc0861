// Misbehavior: a rogues' gallery walking through Table 1 of the paper —
// each rule for grafting, the attack that motivates it, and the
// mechanism that enforces it. Companion to cmd/vinosim (which runs the
// dynamic scenarios); this example focuses on the install-time rules and
// prints a rule-by-rule scorecard.
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	vino "vino"
)

type check struct {
	rule string
	what string
	ok   bool
	note string
}

func main() {
	var checks []check
	add := func(rule, what string, ok bool, note string) {
		checks = append(checks, check{rule, what, ok, note})
	}

	k := vino.New(vino.Config{})
	point := k.Grafts.RegisterPoint(&vino.GraftPoint{
		Name:      "obj.fn",
		Kind:      vino.Function,
		Privilege: vino.Local,
		Default:   func(t *vino.Thread, args []int64) (int64, error) { return -1, nil },
		Watchdog:  50 * time.Millisecond,
	})
	k.Grafts.RegisterPoint(&vino.GraftPoint{
		Name:      "security.enforce",
		Kind:      vino.Function,
		Privilege: vino.Restricted,
		Default:   func(t *vino.Thread, args []int64) (int64, error) { return 0, nil },
	})
	k.Grafts.RegisterPoint(&vino.GraftPoint{
		Name:      "vm.global-policy",
		Kind:      vino.Function,
		Privilege: vino.Global,
		Default:   func(t *vino.Thread, args []int64) (int64, error) { return 0, nil },
	})
	contested := k.Locks.NewLock("contested", &vino.LockClass{Name: "demo", Timeout: 20 * time.Millisecond})
	k.Grafts.RegisterCallable("demo.lock", func(ctx *vino.Ctx, args [5]int64) (int64, error) {
		ctx.Txn.AcquireLock(contested, vino.Exclusive)
		return 0, nil
	})

	k.SpawnProcess("attacker", 100, func(p *vino.Process) {
		// Rule 1+9: preemptible grafts, forward progress.
		g, err := p.BuildAndInstall("obj.fn", vino.FaultGraftSource(vino.FaultGraftLoop), vino.InstallOptions{})
		if err != nil {
			log.Fatal(err)
		}
		res, ierr := point.Invoke(p.Thread)
		add("1,9", "infinite-loop graft", res == -1 && ierr != nil && g.Removed(),
			"watchdog abort, default result, graft removed")

		// Rule 2: lock hoarding (run a contender alongside).
		g2, err := p.BuildAndInstall("obj.fn", `
.name hoard
.import demo.lock
.func main
main:
    callk demo.lock
spin:
    jmp spin
`, vino.InstallOptions{})
		if err != nil {
			log.Fatal(err)
		}
		got := false
		k.Sched.Spawn("contender", func(t *vino.Thread) {
			t.Charge(time.Millisecond)
			contested.Acquire(t, vino.Exclusive)
			got = true
			_ = contested.Release(t)
		})
		_, ierr = point.Invoke(p.Thread)
		for i := 0; i < 50 && !got; i++ {
			p.Thread.Yield()
		}
		var te *vino.LockTimeoutError
		add("2", "lock(resourceA); while(1)", errors.As(ierr, &te) && got && g2.Removed(),
			"contention time-out aborted the holder; contender proceeded")

		// Rule 3: illegal memory access contained by SFI.
		g3, err := p.BuildAndInstall("obj.fn", `
.name scribble
.func main
main:
    movi r1, 0
    movi r2, 0xFF
    stb [r1+0], r2
    movi r0, 0
    ret
`, vino.InstallOptions{})
		if err != nil {
			log.Fatal(err)
		}
		km := g3.VM().KernelMemory()
		for i := range km {
			km[i] = 0x77
		}
		_, _ = point.Invoke(p.Thread)
		clean := true
		for _, b := range km {
			if b != 0x77 {
				clean = false
			}
		}
		k.Grafts.Remove(g3)
		add("3", "store to kernel address 0", clean, "SFI masked the address into the graft segment")

		// Rules 4+7: calling functions not on the graft-callable list.
		_, err = p.BuildAndInstall("obj.fn", `
.name stealer
.import fs.read_private_data
.func main
main:
    callk fs.read_private_data
    ret
`, vino.InstallOptions{})
		add("4,7", "import of a non-callable function", errors.Is(err, vino.ErrNotCallable),
			"rejected by the dynamic linker")

		// Rule 5: restricted points.
		_, err = p.BuildAndInstall("security.enforce", ".name takeover\n.func main\nmain:\n ret", vino.InstallOptions{})
		add("5", "graft on the security module", errors.Is(err, vino.ErrRestrictedPoint),
			"restricted points are never graftable")

		// Rule 6: unsigned code.
		raw, err := vino.Toolchain{}.Build(".name raw\n.func main\nmain:\n ret", vino.BuildOptions{Unsafe: true})
		if err != nil {
			log.Fatal(err)
		}
		_, err = p.Install("obj.fn", raw, vino.InstallOptions{})
		add("6", "unprocessed (unsigned) image", errors.Is(err, vino.ErrNotSafe),
			"loader demands the toolchain's signature over rewritten code")

		// Rule 8: global policy needs privilege.
		_, err = p.BuildAndInstall("vm.global-policy", ".name bias\n.func main\nmain:\n ret", vino.InstallOptions{})
		add("8", "normal user grafting global policy", errors.Is(err, vino.ErrPrivilege),
			"global points require root")
	})
	if err := k.Run(); err != nil {
		log.Fatal(err)
	}

	fmt.Println("Table 1 scorecard — rules for grafting:")
	allOK := true
	for _, c := range checks {
		status := "ENFORCED"
		if !c.ok {
			status = "BROKEN"
			allOK = false
		}
		fmt.Printf("  rule %-4s %-38s %-9s %s\n", c.rule, c.what, status, c.note)
	}
	if !allOK {
		log.Fatal("some rules are not enforced")
	}
	fmt.Println("\nall attempted misbehaviors were contained; the kernel survived.")
}
