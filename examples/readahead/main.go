// Readahead: the paper's §4.1 motivating application — a database-style
// random reader with advance knowledge of its access pattern. It runs
// the same workload twice, with and without a read-ahead graft, and
// prints the stall time the graft hides plus the §4.1.1 win condition.
package main

import (
	"fmt"
	"log"
	"time"

	vino "vino"
	"vino/internal/graft"
)

// The §4.1.2 graft: a memory buffer is shared between the application
// and the graft; the app deposits the (offset, size) of its *next* read
// there, and the graft turns it into a prefetch request.
const raGraft = `
.name app-directed-ra
.import fs.prefetch
.func main
main:
    ld r3, [r10+0]    ; announced next offset
    ld r4, [r10+8]    ; announced next size
    jz r4, done
    ld r1, [r10+16]   ; fd
    mov r2, r3
    mov r3, r4
    callk fs.prefetch
    ret
done:
    movi r0, 0
    ret
`

const (
	fileSize  = 12 << 20 // the paper's 12 MB file
	reads     = 300      // the paper uses 3000; 300 keeps the demo snappy
	computeUS = 250      // think time between reads
)

func pattern() []int64 {
	out := make([]int64, reads)
	state := int64(424242)
	nBlocks := int64(fileSize / vino.BlockSize)
	for i := range out {
		state = (state*1103515245 + 12345) & 0x7FFFFFFF
		out[i] = state % nBlocks
	}
	return out
}

func run(useGraft bool) (stall, elapsed time.Duration, faults int64) {
	k := vino.New()
	fsys := vino.NewFS(k, vino.NewDisk(vino.FujitsuDisk()), 8192)
	fsys.Create("db", fileSize, 100, false)
	blocks := pattern()
	k.SpawnProcess("db-app", 100, func(p *vino.Process) {
		of, err := fsys.Open(p.Thread, "db")
		if err != nil {
			log.Fatal(err)
		}
		var g *vino.Installed
		if useGraft {
			g, err = p.BuildAndInstall(of.RAPoint().Name, raGraft, graft.InstallOptions{})
			if err != nil {
				log.Fatal(err)
			}
			poke(g, 16, int64(of.FD()))
		}
		buf := make([]byte, vino.BlockSize)
		start := k.Clock.Now()
		for i, b := range blocks {
			if g != nil {
				if i+1 < len(blocks) {
					poke(g, 0, blocks[i+1]*vino.BlockSize)
					poke(g, 8, vino.BlockSize)
				} else {
					poke(g, 8, 0)
				}
			}
			if _, err := of.ReadAt(p.Thread, buf, b*vino.BlockSize); err != nil {
				log.Fatal(err)
			}
			p.Thread.Charge(computeUS * time.Microsecond) // compute on the block
		}
		stall = of.StallTime
		elapsed = k.Clock.Now() - start
		faults = of.SyncStalls
	})
	if err := k.Run(); err != nil {
		log.Fatal(err)
	}
	return
}

func poke(g *vino.Installed, off int, v int64) {
	heap := g.VM().Heap()
	for i := 0; i < 8; i++ {
		heap[off+i] = byte(uint64(v) >> (8 * i))
	}
}

func main() {
	fmt.Printf("workload: %d random %d-byte reads of a %d MB file, %d us compute per block\n\n",
		reads, vino.BlockSize, fileSize>>20, computeUS)
	s0, e0, f0 := run(false)
	fmt.Printf("default policy:    elapsed %8.1f ms, stalled %8.1f ms, %d synchronous misses\n",
		ms(e0), ms(s0), f0)
	s1, e1, f1 := run(true)
	fmt.Printf("read-ahead graft:  elapsed %8.1f ms, stalled %8.1f ms, %d synchronous misses\n",
		ms(e1), ms(s1), f1)
	fmt.Printf("\nthe graft hid %.1f ms of disk stall (%.0f us per read)\n",
		ms(s0-s1), float64(s0-s1)/float64(reads)/float64(time.Microsecond))
	fmt.Println("\nthe s4.1.1 win condition: the application wins when its compute time per")
	fmt.Println("read exceeds the graft's safe-path cost (~110 us here, 107 us in the paper);")
	fmt.Printf("at %d us of compute the grafted run finished %.1f ms sooner.\n", computeUS, ms(e0-e1))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
