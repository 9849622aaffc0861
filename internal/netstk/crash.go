package netstk

import (
	"bytes"
	"encoding/gob"
	"sort"
)

// Crash checkpoint/restore for the network stack. Connections (with
// their stream positions), listeners and counters rewind exactly, so a
// mid-accept crash cannot leak a half-accepted connection past the
// restore. The state is small — bounded by live connections — so every
// checkpoint copies it whole, buffers included.

type connSnap struct {
	conn    *Conn
	in      []byte
	readPos int
	out     []byte
	closed  bool
}

type netSnap struct {
	ports    map[string]*Port
	conns    map[int64]*connSnap
	nextConn int64
	stats    Stats
}

// CrashName implements crash.Snapshotter.
func (n *Net) CrashName() string { return "netstk" }

// CrashSnapshot implements crash.Snapshotter.
func (n *Net) CrashSnapshot() any {
	s := &netSnap{
		ports:    make(map[string]*Port, len(n.ports)),
		conns:    make(map[int64]*connSnap, len(n.conns)),
		nextConn: n.nextConn,
		stats:    n.stats,
	}
	for k, p := range n.ports {
		s.ports[k] = p
	}
	for id, c := range n.conns {
		s.conns[id] = &connSnap{
			conn:    c,
			in:      append([]byte(nil), c.in...),
			readPos: c.readPos,
			out:     append([]byte(nil), c.out...),
			closed:  c.closed,
		}
	}
	return s
}

// portExport identifies one listener in the durable image.
type portExport struct {
	Proto  string
	Number int
}

// netExport is the network stack's durable image: the listener set, the
// connection id frontier and the lifetime counters. Live connections
// are in-flight requests; they die with the machine (their peers see a
// reset) and the fleet driver accounts them as failed. Importing
// re-Listens every port through the normal path, which re-registers
// each port's connection graft point — and thereby flushes any pending
// graft imports waiting on those points.
type netExport struct {
	Ports    []portExport
	NextConn int64
	Stats    Stats
}

// CrashExport implements crash.Exporter.
func (n *Net) CrashExport() ([]byte, error) {
	ex := &netExport{NextConn: n.nextConn, Stats: n.stats}
	for _, p := range n.ports {
		ex.Ports = append(ex.Ports, portExport{Proto: p.Proto, Number: p.Number})
	}
	sort.Slice(ex.Ports, func(i, j int) bool {
		if ex.Ports[i].Proto != ex.Ports[j].Proto {
			return ex.Ports[i].Proto < ex.Ports[j].Proto
		}
		return ex.Ports[i].Number < ex.Ports[j].Number
	})
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(ex)
	return buf.Bytes(), err
}

// CrashImport implements crash.Exporter.
func (n *Net) CrashImport(data []byte) error {
	var ex netExport
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ex); err != nil {
		return err
	}
	for _, pe := range ex.Ports {
		n.Listen(pe.Proto, pe.Number)
	}
	if ex.NextConn > n.nextConn {
		n.nextConn = ex.NextConn
	}
	n.stats = ex.Stats
	return nil
}

// CrashRestore implements crash.Snapshotter.
func (n *Net) CrashRestore(snap any) {
	s := snap.(*netSnap)
	n.ports = make(map[string]*Port, len(s.ports))
	for k, p := range s.ports {
		n.ports[k] = p
	}
	n.conns = make(map[int64]*Conn, len(s.conns))
	for id, cs := range s.conns {
		c := cs.conn
		c.in = append([]byte(nil), cs.in...)
		c.readPos = cs.readPos
		c.out = append([]byte(nil), cs.out...)
		c.closed = cs.closed
		n.conns[id] = c
	}
	n.nextConn = s.nextConn
	n.stats = s.stats
}
