package kernel_test

// Graft-callable functions as confused deputies. The four callables
// that take a graft pointer (vino.log, fs.read, net.read, net.write)
// copy through sfi.VM.CopyIn/CopyOut, so a copy made for a
// compartmented graft has exactly the graft's own rights: it cannot
// write into the read-only export region, cannot touch the share
// window without an open grant, cannot straddle regions, and cannot
// smuggle a wrapping pointer past the bounds check.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	vfs "vino/internal/fs"
	"vino/internal/graft"
	"vino/internal/kernel"
	"vino/internal/netstk"
	"vino/internal/resource"
	"vino/internal/sched"
	"vino/internal/sfi"
	"vino/internal/trace"
	"vino/internal/txn"
)

// Segment offsets of the default 64 KiB compartment layout.
const (
	deputyHeap  = 1024
	deputyShare = 40960
	deputyRO    = 49152
)

type deputyCase struct {
	name     string
	callable string
	// ptr is the pointer argument: a segment offset, or an absolute
	// address when abs is set.
	ptr   int64
	abs   bool
	grant sfi.Perm // a grant over the first 64 bytes of share, if any
	ok    bool
	// audit is the grant-window use the VM must record ("r" or "w").
	audit string
}

func TestCallableCopiesHaveGraftRights(t *testing.T) {
	const wrap = 0x7ffffffffffffffc
	cases := []deputyCase{
		// Refused: the copy would do what the graft's own access cannot.
		{name: "fs.read into ro", callable: "fs.read", ptr: deputyRO},
		{name: "net.read into ro", callable: "net.read", ptr: deputyRO},
		{name: "fs.read into ungranted share", callable: "fs.read", ptr: deputyShare},
		{name: "net.read into ungranted share", callable: "net.read", ptr: deputyShare},
		{name: "vino.log from ungranted share", callable: "vino.log", ptr: deputyShare},
		{name: "net.write from ungranted share", callable: "net.write", ptr: deputyShare},
		{name: "fs.read through a read grant", callable: "fs.read", ptr: deputyShare, grant: sfi.PermRead},
		{name: "vino.log across heap/share", callable: "vino.log", ptr: deputyShare - 4},
		{name: "fs.read across heap/share", callable: "fs.read", ptr: deputyShare - 4},
		{name: "net.read across heap/share", callable: "net.read", ptr: deputyShare - 4},
		{name: "net.write across heap/share", callable: "net.write", ptr: deputyShare - 4},
		{name: "vino.log wrapping pointer", callable: "vino.log", ptr: wrap, abs: true},
		{name: "fs.read wrapping pointer", callable: "fs.read", ptr: wrap, abs: true},
		{name: "net.read wrapping pointer", callable: "net.read", ptr: wrap, abs: true},
		{name: "net.write wrapping pointer", callable: "net.write", ptr: wrap, abs: true},
		// Still allowed: what the graft itself may read or write.
		{name: "vino.log from ro", callable: "vino.log", ptr: deputyRO, ok: true},
		{name: "net.write from ro", callable: "net.write", ptr: deputyRO, ok: true},
		{name: "vino.log from heap", callable: "vino.log", ptr: deputyHeap, ok: true},
		{name: "fs.read into heap", callable: "fs.read", ptr: deputyHeap, ok: true},
		{name: "net.read into heap", callable: "net.read", ptr: deputyHeap, ok: true},
		{name: "net.write from heap", callable: "net.write", ptr: deputyHeap, ok: true},
		{name: "fs.read into a write grant", callable: "fs.read", ptr: deputyShare + 8, grant: sfi.PermRW, ok: true, audit: "w"},
		{name: "net.read into a write grant", callable: "net.read", ptr: deputyShare, grant: sfi.PermWrite, ok: true, audit: "w"},
		{name: "vino.log from a read grant", callable: "vino.log", ptr: deputyShare, grant: sfi.PermRead, ok: true, audit: "r"},
		{name: "net.write from a read grant", callable: "net.write", ptr: deputyShare + 8, grant: sfi.PermRead, ok: true, audit: "r"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { runDeputyCase(t, tc) })
	}
}

func runDeputyCase(t *testing.T, tc deputyCase) {
	k := kernel.New(kernel.Config{ZeroTxnCosts: true})
	fsys := vfs.New(k, vfs.NewDisk(vfs.FujitsuM2694ESA()), 64)
	fsys.Create("data", 4*vfs.BlockSize, graft.Root, true)
	net := netstk.New(k)
	net.Listen("tcp", 80)
	pt := k.Grafts.RegisterPoint(&graft.Point{
		Name: "deputy.fn",
		Kind: graft.Function,
		Default: func(*sched.Thread, []int64) (int64, error) {
			return -1, nil
		},
		PreGraft: func(_ *sched.Thread, _ *txn.Txn, g *graft.Installed, _ []int64) error {
			if tc.grant == sfi.PermNone {
				return nil
			}
			_, err := g.VM().Grant(deputyShare, 64, tc.grant)
			return err
		},
		Watchdog: time.Second, // fs.read may wait on the disk
	})
	src := fmt.Sprintf(".name deputy\n.import %s\n.func main\nmain:\n    callk %s\n    ret\n", tc.callable, tc.callable)
	sentinel := []byte("RO-SENTINEL-0123")
	var (
		g    *graft.Installed
		conn *netstk.Conn
		res  int64
		err  error
	)
	k.SpawnProcess("caller", graft.Root, func(p *kernel.Process) {
		img, _, berr := sfi.BuildCompartmented(src, k.Signer)
		if berr != nil {
			t.Errorf("build: %v", berr)
			return
		}
		var ierr error
		g, ierr = p.Install(pt.Name, img, graft.InstallOptions{
			Transfer: map[resource.Kind]int64{resource.Memory: 4096},
		})
		if ierr != nil {
			t.Errorf("install: %v", ierr)
			return
		}
		if _, serr := g.VM().SeedRegion(sfi.RegionRO, sentinel); serr != nil {
			t.Errorf("seed ro: %v", serr)
			return
		}
		of, oerr := fsys.Open(p.Thread, "data")
		if oerr != nil {
			t.Errorf("open: %v", oerr)
			return
		}
		var cerr error
		conn, cerr = net.Connect(k.Sched, "tcp", 80, []byte("GET / HTTP/1.0\r\n\r\n"))
		if cerr != nil {
			t.Errorf("connect: %v", cerr)
			return
		}
		ptr := tc.ptr
		if !tc.abs {
			ptr += int64(g.VM().HeapBase())
		}
		const n = 8
		var args []int64
		switch tc.callable {
		case "vino.log":
			args = []int64{ptr, n}
		case "fs.read":
			args = []int64{int64(of.FD()), 0, ptr, n}
		case "net.read", "net.write":
			args = []int64{conn.ID, ptr, n}
		}
		res, err = pt.Invoke(p.Thread, args...)
	})
	if rerr := k.Run(); rerr != nil {
		t.Fatalf("run: %v", rerr)
	}
	if t.Failed() {
		return
	}
	if got := g.VM().Heap()[deputyRO : deputyRO+len(sentinel)]; !bytes.Equal(got, sentinel) {
		t.Errorf("ro sentinel = %q, want %q", got, sentinel)
	}
	for _, ev := range k.Trace.Filter(trace.GraftAbort) {
		if strings.Contains(ev.Detail, "runtime error") {
			t.Errorf("abort reason %q is a Go runtime error", ev.Detail)
		}
	}
	st := pt.Stats()
	if !tc.ok {
		var v *sfi.Violation
		if !errors.As(err, &v) || !v.Compartment {
			t.Fatalf("err = %v (result %d), want a compartment violation", err, res)
		}
		if st.Aborts != 1 || st.Commits != 0 {
			t.Errorf("point stats = %+v, want one abort and no commit", st)
		}
		return
	}
	if err != nil || st.Commits != 1 || st.Aborts != 0 {
		t.Fatalf("err = %v, stats = %+v, want one commit", err, st)
	}
	if tc.ptr == deputyRO {
		// The kernel read the graft's read-only bytes on its behalf.
		if got := string(conn.Response()) + strings.Join(k.Log(), "\n"); !strings.Contains(got, string(sentinel[:8])) {
			t.Errorf("copied-in bytes %q lack the ro sentinel", got)
		}
	}
	var audit []sfi.GrantAudit
	switch tc.audit {
	case "r":
		audit = []sfi.GrantAudit{{Region: "share", Reads: 1}}
	case "w":
		audit = []sfi.GrantAudit{{Region: "share", Writes: 1}}
	}
	if got := g.VM().GrantAudits(); fmt.Sprint(got) != fmt.Sprint(audit) {
		t.Errorf("grant audits = %v, want %v", got, audit)
	}
}
