// Resource-meter checkpointing. Graft resource charges are physical
// events on accounts shared across grafts (tenant accounts in
// particular): a socket held from accept to teardown, kernel heap held
// from allocation to undo. A contained kernel panic can strike between
// the charge and its release — mid-accept, or inside the abort
// processing that would have run the undo log — and a whole-kernel
// restore rewinds every subsystem's state but, without this file, not
// the meters, stranding the charge forever. The Meters snapshotter
// makes the balances part of the checkpoint image: capture records
// every install-bound account's balances, restore rewinds them to the
// same instant as everything else, so a charge and its owning state
// always travel together.
package graft

import "vino/internal/resource"

// Meters checkpoints the balances of every account bound to a graft
// install. Register it with the crash manager after the Registry so
// restores rewind membership first, meters second.
type Meters struct{ reg *Registry }

// NewMeters returns the registry's meter snapshotter.
func NewMeters(r *Registry) *Meters { return &Meters{reg: r} }

// CrashName implements crash.Snapshotter.
func (m *Meters) CrashName() string { return "graft-meters" }

// CrashSnapshot implements crash.Snapshotter: a deep copy of every
// install-bound account's balances.
func (m *Meters) CrashSnapshot() any {
	snaps := make(map[*resource.Account]*resource.AccountSnap, len(m.reg.meterAccounts))
	for a := range m.reg.meterAccounts {
		snaps[a] = a.Snapshot()
	}
	return snaps
}

// CrashRestore implements crash.Snapshotter. Accounts first bound after
// the checkpoint are absent from the snapshot and keep their balances:
// the restore also removes the grafts that bound them, so the charges
// are written off with their owner (shared tenant accounts are in the
// snapshot from their first install onward).
func (m *Meters) CrashRestore(snap any) {
	for a, s := range snap.(map[*resource.Account]*resource.AccountSnap) {
		a.RestoreSnapshot(s)
	}
}
