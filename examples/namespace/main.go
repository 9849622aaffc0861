// Namespace: the paper's taxonomy names "name resolution" as a Black
// Box graft. This example gives one user a chroot-style view of the
// file system by grafting a path translator onto the per-user
// resolution point: every lookup the jailed user makes is prefixed with
// "jail/", while other users see the real namespace — a malicious or
// buggy translator can only ever hurt the user who installed it
// (rule 8).
package main

import (
	"fmt"
	"log"

	vino "vino"
	"vino/internal/graft"
)

// The translator graft: copy "jail/" and then the requested path into
// the output buffer; return the new length. Protocol: input length at
// heap+504, input bytes at heap+512, output at heap+1024.
const chrootGraft = `
.name chroot
.data "jail/"
.func main
main:
    mov r2, r10
    addi r3, r10, 1024
    movi r4, 5
pfx:
    ldb r5, [r2+0]
    stb [r3+0], r5
    addi r2, r2, 1
    addi r3, r3, 1
    addi r4, r4, -1
    jnz r4, pfx
    addi r2, r10, 512
    mov r4, r1
cp:
    jz r4, done
    ldb r5, [r2+0]
    stb [r3+0], r5
    addi r2, r2, 1
    addi r3, r3, 1
    addi r4, r4, -1
    jmp cp
done:
    addi r0, r1, 5
    ret
`

func main() {
	k := vino.New()
	fsys := vino.NewFS(k, vino.NewDisk(vino.FujitsuDisk()), 256)
	if err := fsys.Mkdir("jail", vino.Root); err != nil {
		log.Fatal(err)
	}
	fsys.Create("passwd", vino.BlockSize, vino.Root, true)
	fsys.Create("jail/passwd", vino.BlockSize, vino.Root, true)

	open := func(p *vino.Process, who string) {
		of, err := fsys.OpenPath(p.Thread, "passwd")
		if err != nil {
			log.Fatalf("%s: %v", who, err)
		}
		fmt.Printf("%-8s opened %q -> file %q\n", who, "passwd", of.File().Name)
		of.Close()
	}

	k.SpawnProcess("jailed", 100, func(p *vino.Process) {
		point := fsys.ResolvePoint(p.Thread)
		if _, err := p.BuildAndInstall(point.Name, chrootGraft, graft.InstallOptions{}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("installed translator at %s\n", point.Name)
		open(p, "jailed")
	})
	k.SpawnProcess("free", 101, func(p *vino.Process) {
		p.Thread.Yield()
		open(p, "free")
	})
	if err := k.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nflight recorder:")
	fmt.Print(k.Trace.Dump())
}
