// Package netstk is the minimal in-simulator network beneath the event
// graft experiments (§3.5 of the paper): ports with listeners,
// connections carrying byte streams, and an event graft point per port.
// When a connection arrives, the kernel spawns a worker thread per
// installed handler and runs it inside a transaction, exactly as VINO
// does for its in-kernel HTTP and NFS servers (Figure 2).
package netstk

import (
	"errors"
	"fmt"

	"vino/internal/crash"
	"vino/internal/graft"
	"vino/internal/kernel"
	"vino/internal/resource"
	"vino/internal/sched"
)

// Errors returned by the network layer.
var (
	ErrNoListener = errors.New("netstk: no listener on port")
	ErrBadConn    = errors.New("netstk: no such connection")
	ErrConnClosed = errors.New("netstk: connection closed")
)

// Net is the simulated network stack.
type Net struct {
	k *kernel.Kernel
	// BillSockets arms resource accounting at the accept edge: each
	// accepted connection charges one Sockets unit per dispatched
	// handler to that handler's account, and a handler whose account
	// lacks budget fails the accept with a LimitError (§3.2 denial).
	// Off by default: accounts are zero-limit unless granted, so billing
	// is armed only by workloads that hand their endpoints a Sockets
	// budget (the fleet driver does).
	BillSockets bool
	ports       map[string]*Port
	conns       map[int64]*Conn
	nextConn    int64
	stats       Stats
}

// Stats counts network events.
type Stats struct {
	Connections int64
	BytesIn     int64
	BytesOut    int64
	Rejected    int64
	// SocketDenials counts accepts refused because a handler's resource
	// account was out of Sockets budget — the paper's §3.2 denial path
	// applied to the network edge.
	SocketDenials int64
	// Churned counts connections reset by the fault plane before any
	// handler ran (connection-churn injection).
	Churned int64
	// MidstreamFaults counts reads/writes failed by the fault plane on
	// established connections, inside running handlers. Each one tears
	// the connection down; the handler's transaction aborts and its
	// partial response is undone.
	MidstreamFaults int64
}

// New creates a network stack and registers its graft-callable
// functions.
func New(k *kernel.Kernel) *Net {
	n := &Net{
		k:     k,
		ports: make(map[string]*Port),
		conns: make(map[int64]*Conn),
	}
	n.registerCallables()
	if k.Crash != nil {
		k.Crash.Register(n)
	}
	return n
}

// Stats returns a copy of the counters.
func (n *Net) Stats() Stats { return n.stats }

// Port is a listening endpoint whose connection event is a graft point.
type Port struct {
	Proto  string
	Number int
	point  *graft.Point
	net    *Net
}

// Point returns the port's connection event graft point.
func (p *Port) Point() *graft.Point { return p.point }

func portKey(proto string, num int) string { return fmt.Sprintf("%s/%d", proto, num) }

// Listen creates (or returns) the listener for proto/port. The event
// graft point is named e.g. "tcp/80.connection".
func (n *Net) Listen(proto string, num int) *Port {
	key := portKey(proto, num)
	if p, ok := n.ports[key]; ok {
		return p
	}
	p := &Port{Proto: proto, Number: num, net: n}
	p.point = n.k.Grafts.RegisterPoint(&graft.Point{
		Name:      key + ".connection",
		Kind:      graft.Event,
		Privilege: graft.Local,
	})
	n.ports[key] = p
	return p
}

// Conn is one simulated connection: a request byte stream in, a response
// byte stream out.
type Conn struct {
	ID      int64
	Port    int
	in      []byte
	readPos int
	out     []byte
	closed  bool

	// billed holds the accounts charged one Sockets unit at accept time
	// (one per handler dispatched on the connection); released exactly
	// once, when the connection is torn down. Billing is a physical
	// event: an aborting handler whose undo reopens the stream does not
	// resurrect the socket charge.
	billed []*resource.Account
	// memBilled tracks outstanding response-buffer Memory charges per
	// account, so teardown can return the buffer to the owning account.
	memBilled map[*resource.Account]int64
}

func (c *Conn) billMem(a *resource.Account, n int64) {
	if c.memBilled == nil {
		c.memBilled = make(map[*resource.Account]int64)
	}
	c.memBilled[a] += n
}

// Response returns the bytes written by handlers so far.
func (c *Conn) Response() []byte { return append([]byte(nil), c.out...) }

// Closed reports whether a handler closed the connection.
func (c *Conn) Closed() bool { return c.closed }

// Connect delivers a request to proto/port: a connection is created and
// the port's event point triggered, spawning one transactional worker
// per installed handler. The caller should drive the scheduler (yield or
// run) before inspecting the response.
func (n *Net) Connect(s *sched.Scheduler, proto string, num int, request []byte) (*Conn, error) {
	p, ok := n.ports[portKey(proto, num)]
	if !ok {
		n.stats.Rejected++
		return nil, fmt.Errorf("%w: %s/%d", ErrNoListener, proto, num)
	}
	// Resource binding at the accept edge (§3.2): each handler that will
	// be dispatched holds one socket on its own account for the life of
	// the connection. A handler whose account is out of Sockets budget
	// fails the accept with the account's LimitError — denial, not
	// degradation, exactly like any other quantity-constrained resource.
	var billed []*resource.Account
	if n.BillSockets {
		for _, g := range p.point.Handlers() {
			if err := g.Account.Charge(resource.Sockets, 1); err != nil {
				for _, a := range billed {
					a.Release(resource.Sockets, 1)
				}
				n.stats.SocketDenials++
				return nil, fmt.Errorf("accept %s/%d: %w", proto, num, err)
			}
			billed = append(billed, g.Account)
		}
	}
	n.nextConn++
	c := &Conn{ID: n.nextConn, Port: num, in: append([]byte(nil), request...), billed: billed}
	n.conns[c.ID] = c
	n.stats.Connections++
	n.stats.BytesIn += int64(len(request))
	// Mid-accept crash site: the connection is registered and counted
	// but no handler has been triggered — restore must not leave a
	// half-accepted connection behind.
	n.k.Faults.MaybeCrash(crash.SiteAccept, "")
	if n.k.Faults.DropConnection(c.ID) {
		// Connection churn: the peer resets before any handler runs.
		// Handlers are still triggered — they must survive finding a
		// dead socket (their net.read aborts their transaction).
		c.closed = true
		n.stats.Churned++
		n.releaseSockets(c)
	}
	p.point.Trigger(s, c.ID)
	return c, nil
}

// releaseSockets returns the connection's accept-time socket charges to
// their accounts, exactly once. Like the mid-stream teardown, socket
// release is a physical event outside any transaction: an aborting
// handler cannot resurrect a freed socket.
func (n *Net) releaseSockets(c *Conn) {
	for _, a := range c.billed {
		a.Release(resource.Sockets, 1)
	}
	c.billed = nil
}

// Teardown closes a connection from the kernel side (a driver reaping a
// finished or abandoned request) and releases every outstanding charge:
// the accept-time sockets and the committed response-buffer Memory.
// Memory is released only here, never on the in-handler close paths —
// a close inside a transaction that later aborts would otherwise race
// the net.write undo into a double release. Idempotent; must be called
// outside any transaction.
func (n *Net) Teardown(c *Conn) {
	c.closed = true
	n.releaseSockets(c)
	for a, m := range c.memBilled {
		if m > 0 {
			a.Release(resource.Memory, m)
		}
	}
	c.memBilled = nil
}

func (n *Net) lookupConn(id int64) (*Conn, error) {
	c, ok := n.conns[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBadConn, id)
	}
	return c, nil
}

// registerCallables exposes the graft-callable socket interface. All
// byte transfers are range-checked against the graft's segment, and all
// state changes are transactional: an aborted handler leaves no partial
// response behind.
func (n *Net) registerCallables() {
	// net.read(conn, bufAddr, maxLen) -> bytes copied into the graft
	// heap; 0 at end of request.
	n.k.Grafts.RegisterCallable("net.read", func(ctx *graft.Ctx, args [5]int64) (int64, error) {
		c, err := n.lookupConn(args[0])
		if err != nil {
			return 0, err
		}
		if c.closed {
			return 0, ErrConnClosed
		}
		if ferr := n.k.Faults.NetRead(c.ID); ferr != nil {
			// Mid-stream failure: the peer vanished. The teardown is a
			// physical event, deliberately outside the transaction — an
			// aborting handler must not resurrect the connection.
			c.closed = true
			n.stats.MidstreamFaults++
			n.releaseSockets(c)
			return 0, ferr
		}
		maxLen := args[2]
		if maxLen <= 0 {
			return 0, fmt.Errorf("net.read: bad length %d", maxLen)
		}
		avail := int64(len(c.in) - c.readPos)
		if avail == 0 {
			return 0, nil
		}
		if maxLen > avail {
			maxLen = avail
		}
		data := c.in[c.readPos : c.readPos+int(maxLen)]
		if err := ctx.VM.CopyOut(args[1], data); err != nil {
			return 0, err
		}
		prev := c.readPos
		c.readPos += int(maxLen)
		if ctx.Txn != nil {
			ctx.Txn.PushUndo("net.read", func(int64) { c.readPos = prev }, 0)
		}
		return maxLen, nil
	})
	// net.write(conn, bufAddr, len): append response bytes.
	n.k.Grafts.RegisterCallable("net.write", func(ctx *graft.Ctx, args [5]int64) (int64, error) {
		c, err := n.lookupConn(args[0])
		if err != nil {
			return 0, err
		}
		if c.closed {
			return 0, ErrConnClosed
		}
		if ferr := n.k.Faults.NetWrite(c.ID); ferr != nil {
			c.closed = true
			n.stats.MidstreamFaults++
			n.releaseSockets(c)
			return 0, ferr
		}
		data, err := ctx.VM.CopyIn(args[1], args[2])
		if err != nil {
			return 0, err
		}
		if err := ctx.Account().Charge(resource.Memory, int64(len(data))); err != nil {
			return 0, err
		}
		prevLen := len(c.out)
		c.out = append(c.out, data...)
		n.stats.BytesOut += int64(len(data))
		acct := ctx.Account()
		nBytes := int64(len(data))
		c.billMem(acct, nBytes)
		if ctx.Txn != nil {
			ctx.Txn.PushUndo("net.write", func(int64) {
				c.out = c.out[:prevLen]
				n.stats.BytesOut -= nBytes
				acct.Release(resource.Memory, nBytes)
				c.billMem(acct, -nBytes)
			}, 0)
		}
		return int64(len(data)), nil
	})
	// net.close(conn): end the connection.
	n.k.Grafts.RegisterCallable("net.close", func(ctx *graft.Ctx, args [5]int64) (int64, error) {
		c, err := n.lookupConn(args[0])
		if err != nil {
			return 0, err
		}
		if c.closed {
			return 0, nil
		}
		c.closed = true
		// The socket itself is freed on close regardless of the
		// transaction's fate: an abort that reopens the stream models a
		// half-finished response, not a resurrected kernel socket.
		n.releaseSockets(c)
		if ctx.Txn != nil {
			ctx.Txn.PushUndo("net.close", func(int64) { c.closed = false }, 0)
		}
		return 0, nil
	})
}
