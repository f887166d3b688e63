// Package forwarding implements the multicast forwarding cache of a
// router: (source, group) entries with incoming/outgoing interface state
// and per-entry traffic counters.
//
// The forwarding table is the primary data source of the paper's usage
// monitoring: Mantra derives its Pair, Participant and Session tables from
// exactly this state, and classifies senders against passive participants
// using the per-entry bandwidth estimate (4 kbps threshold).
package forwarding

import (
	"sort"
	"time"

	"repro/internal/addr"
	"repro/internal/topo"
)

// Flag bits describing how an entry was created and is being used.
type Flag uint8

// Entry flags.
const (
	// FlagDense marks flood-and-prune (DVMRP / PIM-DM) state.
	FlagDense Flag = 1 << iota
	// FlagSparse marks explicit-join (PIM-SM) state.
	FlagSparse
	// FlagPruned marks dense-mode state whose downstream is fully pruned.
	FlagPruned
	// FlagSPT marks sparse-mode state on the shortest-path tree.
	FlagSPT
	// FlagRegister marks state created by PIM register encapsulation.
	FlagRegister
)

// Has reports whether all bits of q are set.
func (f Flag) Has(q Flag) bool { return f&q == q }

// String renders the flags in mrouted/cisco-like letters.
func (f Flag) String() string {
	var b [5]byte
	return string(f.AppendTo(b[:0]))
}

// AppendTo appends the flag letters (D, S, P, T, R), or "-" for none.
func (f Flag) AppendTo(b []byte) []byte {
	n := len(b)
	for i, c := range "DSPTR" {
		if f.Has(1 << i) {
			b = append(b, byte(c))
		}
	}
	if len(b) == n {
		b = append(b, '-')
	}
	return b
}

// Key identifies an (S,G) entry.
type Key struct {
	Source addr.IP
	Group  addr.IP
}

// Entry is one (S,G) forwarding cache entry.
type Entry struct {
	Key Key
	// IIF is the RPF link the entry accepts packets on; -1 for entries
	// at the first-hop router of the source.
	IIF int
	// OIFs are the outgoing link IDs currently forwarding.
	OIFs []int
	// Flags describe protocol provenance.
	Flags Flag
	// Packets and Bytes count forwarded traffic.
	Packets, Bytes uint64
	// RateKbps is an exponentially weighted estimate of current
	// bandwidth through the entry.
	RateKbps float64
	// Created is when the entry appeared; LastPacket when traffic last
	// flowed; LastRefresh when protocol state (re-flood, join) last
	// touched the entry.
	Created, LastPacket, LastRefresh time.Time
}

// Table is a router's forwarding cache.
type Table struct {
	router topo.NodeID
	// IdleTimeout expires entries with no traffic; mrouted keeps cache
	// entries for several minutes of idleness, sparse state persists as
	// long as joins refresh — the caller distinguishes by flags.
	IdleTimeout time.Duration
	entries     map[Key]*Entry
	// alpha is the EWMA smoothing factor for RateKbps.
	alpha float64
}

// NewTable returns an empty forwarding cache for router id.
func NewTable(id topo.NodeID, idle time.Duration) *Table {
	if idle <= 0 {
		idle = 2 * time.Hour
	}
	return &Table{router: id, IdleTimeout: idle, entries: make(map[Key]*Entry), alpha: 0.5}
}

// Router returns the owning router's ID.
func (t *Table) Router() topo.NodeID { return t.router }

// Upsert creates or updates the (S,G) entry's interface and flag state,
// preserving counters, and returns it. A nil oifs clears the OIF list.
func (t *Table) Upsert(k Key, iif int, oifs []int, flags Flag, now time.Time) *Entry {
	e := t.entries[k]
	if e == nil {
		e = &Entry{Key: k, Created: now}
		t.entries[k] = e
	}
	e.IIF = iif
	e.OIFs = append(e.OIFs[:0], oifs...)
	e.Flags = flags
	e.LastRefresh = now
	return e
}

// Account records traffic for the entry: bytes forwarded over the window
// dt ending at now. Missing entries are created implicitly (data-driven
// state, as flood-and-prune does).
func (t *Table) Account(k Key, bytes uint64, dt time.Duration, now time.Time) *Entry {
	e := t.entries[k]
	if e == nil {
		e = &Entry{Key: k, Created: now, IIF: -1, Flags: FlagDense}
		t.entries[k] = e
	}
	e.Packets += bytes/1400 + 1
	e.Bytes += bytes
	e.LastPacket = now
	inst := 0.0
	if dt > 0 {
		inst = float64(bytes) * 8 / dt.Seconds() / 1000
	}
	if e.RateKbps == 0 {
		e.RateKbps = inst
	} else {
		e.RateKbps = t.alpha*inst + (1-t.alpha)*e.RateKbps
	}
	return e
}

// DecayIdle applies rate decay to entries that saw no traffic in the
// window ending at now and removes expired ones. Sparse entries are kept
// while their joins persist (the caller removes them via Remove); dense
// entries expire after IdleTimeout without traffic.
func (t *Table) DecayIdle(now time.Time, dt time.Duration) (expired int) {
	for k, e := range t.entries {
		if e.LastPacket.Equal(now) {
			continue
		}
		e.RateKbps *= 1 - t.alpha
		if e.RateKbps < 0.01 {
			e.RateKbps = 0
		}
		idleSince := e.LastPacket
		if e.LastRefresh.After(idleSince) {
			idleSince = e.LastRefresh
		}
		if idleSince.IsZero() {
			idleSince = e.Created
		}
		if e.Flags.Has(FlagDense) && now.Sub(idleSince) > t.IdleTimeout {
			delete(t.entries, k)
			expired++
		}
	}
	return expired
}

// Remove deletes the entry for k, reporting whether it existed.
func (t *Table) Remove(k Key) bool {
	if _, ok := t.entries[k]; !ok {
		return false
	}
	delete(t.entries, k)
	return true
}

// RemoveIf deletes entries matching pred and returns how many were removed.
func (t *Table) RemoveIf(pred func(*Entry) bool) int {
	n := 0
	for k, e := range t.entries {
		if pred(e) {
			delete(t.entries, k)
			n++
		}
	}
	return n
}

// Get returns the entry for k, or nil.
func (t *Table) Get(k Key) *Entry { return t.entries[k] }

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.entries) }

// Entries returns copies of all entries sorted by (group, source) — the
// order mrouted's cache dump uses.
func (t *Table) Entries() []Entry {
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		cp := *e
		cp.OIFs = append([]int(nil), e.OIFs...)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Key.Group != out[j].Key.Group {
			return out[i].Key.Group < out[j].Key.Group
		}
		return out[i].Key.Source < out[j].Key.Source
	})
	return out
}

// Groups returns the distinct groups present in the table, sorted.
func (t *Table) Groups() []addr.IP {
	seen := make(map[addr.IP]bool)
	for k := range t.entries {
		seen[k.Group] = true
	}
	out := make([]addr.IP, 0, len(seen))
	for g := range seen {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotalRateKbps sums the bandwidth estimate across all entries — the
// router's multicast throughput, the quantity behind Figure 5 (left).
// The sum runs over sorted keys: float addition is not associative, so
// map-iteration order would leak into the reported figure's low bits.
func (t *Table) TotalRateKbps() float64 {
	keys := make([]Key, 0, len(t.entries))
	for k := range t.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Source != keys[j].Source {
			return keys[i].Source < keys[j].Source
		}
		return keys[i].Group < keys[j].Group
	})
	sum := 0.0
	for _, k := range keys {
		sum += t.entries[k].RateKbps
	}
	return sum
}
