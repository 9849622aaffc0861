// Quickstart: the paper's Figure 1 flow — look up a graft point on an
// open file, replace its read-ahead policy with your own code, and watch
// the kernel protect itself when the graft misbehaves.
package main

import (
	"fmt"
	"log"

	vino "vino"
	"vino/internal/graft"
)

// graftSrc is GIR assembly: the toolchain (the MiSFIT analog) assembles
// it, inserts the SFI sandboxing instructions, verifies and signs it.
// This graft prefetches the block right after every read — a simple
// "one block ahead even on random access" policy.
const graftSrc = `
.name my-readahead
.import fs.prefetch
.func main
main:
    ; args: r1 = read offset, r2 = read size
    add r3, r1, r2    ; next byte after this read
    ld r1, [r10+0]    ; fd, stashed in the shared buffer by the app
    mov r2, r3
    movi r3, 4096
    callk fs.prefetch ; ask for one block starting there
    ret
`

func main() {
	// A kernel: virtual clock, preemptible scheduler, lock manager,
	// transaction manager, graft registry.
	k := vino.New()
	fsys := vino.NewFS(k, vino.NewDisk(vino.FujitsuDisk()), 4096)
	fsys.Create("data", 64*vino.BlockSize, 100, false)

	k.SpawnProcess("app", 100, func(p *vino.Process) {
		of, err := fsys.Open(p.Thread, "data")
		if err != nil {
			log.Fatal(err)
		}
		// Figure 1: obtain the graft point handle from the namespace...
		point := of.RAPoint()
		fmt.Printf("graft point: %s (privilege: local)\n", point.Name)

		// ...and replace the function there. BuildAndInstall runs the
		// full toolchain; the loader checks the signature, the SFI
		// invariants, and links the import against the graft-callable
		// list.
		g, err := p.BuildAndInstall(point.Name, graftSrc, graft.InstallOptions{})
		if err != nil {
			log.Fatal(err)
		}
		// The app stashes the descriptor in the shared buffer (the
		// graft's heap) so the graft can name the file.
		heap := g.VM().Heap()
		fd := int64(of.FD())
		for i := 0; i < 8; i++ {
			heap[i] = byte(uint64(fd) >> (8 * i))
		}

		// Every read now runs the graft inside a transaction.
		buf := make([]byte, 512)
		for _, off := range []int64{0, 10 * vino.BlockSize, 20 * vino.BlockSize} {
			if _, err := of.ReadAt(p.Thread, buf, off); err != nil {
				log.Fatal(err)
			}
		}
		st := point.Stats()
		fmt.Printf("after 3 reads: %d grafted calls, %d commits, %d aborts\n",
			st.GraftedCalls, st.Commits, st.Aborts)
		fmt.Printf("prefetches queued by the graft: %d\n", of.PrefetchQueued)

		// Now the disaster case: replace it with a graft that loops
		// forever. The watchdog aborts it, the undo stack rolls back its
		// changes, the graft is removed, and reads keep working.
		k.Grafts.Remove(g)
		bad, err := p.BuildAndInstall(point.Name, ".name evil\n.func main\nmain:\n jmp main\n", graft.InstallOptions{})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := of.ReadAt(p.Thread, buf, 30*vino.BlockSize); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("looping graft installed, invoked, and survived: removed=%v\n", bad.Removed())
		fmt.Printf("kernel is fine; total virtual time: %v\n", k.Clock.Now())
	})

	if err := k.Run(); err != nil {
		log.Fatal(err)
	}
	for _, line := range k.Log() {
		fmt.Println("kernel log:", line)
	}
}
