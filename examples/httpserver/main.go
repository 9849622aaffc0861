// Httpserver: the paper's Figure 2 — dropping an entire service into
// the kernel with an event graft. A handler is added to the TCP port 80
// connection event; each arriving connection spawns a worker thread that
// runs the handler inside a transaction. A second, buggy handler on
// port 8080 shows the failure mode: its partial response is undone and
// it is removed, while port 80 keeps serving.
package main

import (
	"fmt"
	"log"

	vino "vino"
	"vino/internal/graft"
	"vino/internal/resource"
)

// A minimal in-kernel HTTP server: read the request, answer 200 with a
// canned body, close. (Real VINO put full HTTP and NFS servers here.)
const httpGraft = `
.name http-server
.import net.read
.import net.write
.import net.close
.data "HTTP/1.0 200 OK\r\nServer: vino-graft\r\n\r\nhello from ring 0 (simulated)\n"
.func main
main:
    mov r6, r1          ; connection id
    addi r2, r10, 512   ; request buffer in our heap
    movi r3, 256
    callk net.read
    mov r1, r6
    mov r2, r10         ; the canned response from the data section
    movi r3, 69
    callk net.write
    mov r1, r6
    callk net.close
    ret
`

// The buggy service: writes half a response, then dereferences junk.
const buggyGraft = `
.name buggy-server
.import net.write
.data "HTTP/1.0 500 oops"
.func main
main:
    mov r6, r1
    mov r2, r10
    movi r3, 17
    callk net.write
    movi r9, 0
    div r0, r0, r9     ; trap: the transaction aborts, the write is undone
    ret
`

func main() {
	k := vino.New(vino.Config{})
	n := vino.NewNet(k)
	web := n.Listen("tcp", 80)
	buggy := n.Listen("tcp", 8080)
	fmt.Printf("event graft points: %s, %s\n\n", web.Point().Name, buggy.Point().Name)

	k.SpawnProcess("webmaster", 100, func(p *vino.Process) {
		opts := graft.InstallOptions{Transfer: map[resource.Kind]int64{resource.Memory: 16 << 10}}
		if _, err := p.BuildAndInstall(web.Point().Name, httpGraft, opts); err != nil {
			log.Fatal(err)
		}
		g2, err := p.BuildAndInstall(buggy.Point().Name, buggyGraft, opts)
		if err != nil {
			log.Fatal(err)
		}

		for i := 0; i < 3; i++ {
			conn, err := n.Connect(k.Sched, "tcp", 80, []byte("GET / HTTP/1.0\r\n\r\n"))
			if err != nil {
				log.Fatal(err)
			}
			for j := 0; j < 20 && !conn.Closed(); j++ {
				p.Thread.Yield()
			}
			fmt.Printf("GET / -> %q\n", firstLine(conn.Response()))
		}

		conn, err := n.Connect(k.Sched, "tcp", 8080, []byte("GET /crash HTTP/1.0\r\n\r\n"))
		if err != nil {
			log.Fatal(err)
		}
		for j := 0; j < 20; j++ {
			p.Thread.Yield()
		}
		fmt.Printf("\nbuggy service on :8080 -> %d response bytes (partial write undone)\n", len(conn.Response()))
		fmt.Printf("buggy handler removed: %v; port 80 still serving:\n", g2.Removed())

		conn2, _ := n.Connect(k.Sched, "tcp", 80, []byte("GET /again HTTP/1.0\r\n\r\n"))
		for j := 0; j < 20 && !conn2.Closed(); j++ {
			p.Thread.Yield()
		}
		fmt.Printf("GET /again -> %q\n", firstLine(conn2.Response()))
	})
	if err := k.Run(); err != nil {
		log.Fatal(err)
	}
	st := n.Stats()
	fmt.Printf("\nnetwork stats: %d connections, %d bytes out\n", st.Connections, st.BytesOut)
}

func firstLine(b []byte) string {
	for i := 0; i+1 < len(b); i++ {
		if b[i] == '\r' && b[i+1] == '\n' {
			return string(b[:i])
		}
	}
	return string(b)
}
