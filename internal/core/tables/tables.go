// Package tables implements Mantra's Router-Table Processor: it maps
// pre-processed raw router dumps onto the tool's local data format — the
// four tables the paper defines (§III): the Pair table of (S,G) tuples,
// the Participant table of hosts, the Session table of groups, and the
// Route table of live routes.
//
// The Pair table is parsed from the multicast forwarding dump and the
// Route table from the DVMRP routing dump; Participant and Session tables
// are *derived* from the Pair table rather than stored — the redundancy-
// avoidance rule the paper's Data Logger applies.
package tables

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/addr"
	"repro/internal/core/collect"
)

// PairEntry is one (source, group) tuple with its traffic statistics.
//
//mantra:codec pair=wire-pairentry shape=a8af70008b65f247
type PairEntry struct {
	Source addr.IP
	Group  addr.IP
	// Flags is the raw flag string from the router (D/S/P/T/R letters).
	Flags string
	// RateKbps is the router's current bandwidth estimate.
	RateKbps float64
	// Packets is the cumulative packet count.
	Packets uint64
	// Uptime is how long the router has had state for the pair.
	Uptime time.Duration
	// Since is the absolute instant state appeared (snapshot time minus
	// uptime), filled by BuildSnapshot. Unlike Uptime it is stable
	// across cycles, which is what makes delta logging effective.
	Since time.Time
}

// PairTable lists every session-participant tuple the router has state for.
type PairTable []PairEntry

// RouteEntry is one live route.
//
//mantra:codec pair=wire-routeentry shape=4c55178fc6135663
type RouteEntry struct {
	Prefix addr.Prefix
	// Gateway is the next-hop address ("local" parses as the zero IP
	// with Local set).
	Gateway addr.IP
	Local   bool
	Metric  int
	Uptime  time.Duration
	// Since is the absolute instant the route appeared; see
	// PairEntry.Since.
	Since time.Time
}

// RouteTable lists the current set of live routes.
type RouteTable []RouteEntry

// ParticipantEntry summarizes one host across the pair table.
type ParticipantEntry struct {
	Host addr.IP
	// Groups is the number of groups the host participates in.
	Groups int
	// MaxRateKbps is the host's highest per-pair rate — the sender
	// classification input.
	MaxRateKbps float64
	// Uptime is the longest pair uptime, i.e. how long Mantra has had
	// state for the host.
	Uptime time.Duration
}

// ParticipantTable lists hosts participating in sessions.
type ParticipantTable []ParticipantEntry

// SessionEntry summarizes one group across the pair table.
type SessionEntry struct {
	Group addr.IP
	// Density is the number of participant hosts with state for the
	// group.
	Density int
	// TotalRateKbps is the aggregate bandwidth into the group.
	TotalRateKbps float64
	// Packets is the cumulative packets across pairs.
	Packets uint64
	// Protocol records which protocol's state advertised the session
	// ("dvmrp" for dense flags, "pim" for sparse).
	Protocol string
	// Uptime is the longest pair uptime for the group.
	Uptime time.Duration
}

// SessionTable lists the multicast sessions visible at the router.
type SessionTable []SessionEntry

// IGMPEntry is one local membership report visible at the router.
type IGMPEntry struct {
	Group  addr.IP
	Host   addr.IP
	Uptime time.Duration
}

// SAEntry is one MSDP source-active cache entry.
type SAEntry struct {
	Source   addr.IP
	Group    addr.IP
	OriginRP addr.IP
	Uptime   time.Duration
}

// MBGPEntry is one MBGP RIB route.
type MBGPEntry struct {
	Prefix  addr.Prefix
	NextHop addr.IP
	Local   bool
	ASPath  []int
	Uptime  time.Duration
}

// Snapshot is one monitoring cycle's normalized view of one router.
type Snapshot struct {
	Target string
	At     time.Time
	Pairs  PairTable
	Routes RouteTable
	IGMP   []IGMPEntry
	SAs    []SAEntry
	MBGP   []MBGPEntry
}

// The dump commands BuildSnapshot maps onto tables.
const (
	cmdDVMRP  = "show ip dvmrp route"
	cmdMroute = "show ip mroute"
	cmdIGMP   = "show ip igmp groups"
	cmdMSDP   = "show ip msdp sa-cache"
	cmdMBGP   = "show ip mbgp"
)

// The table parsers read a raw dump in place through collect's line and
// field cursor, which applies collect.Preprocess's cleaning rules without
// building its []string: each row is scanned, split and parsed in one
// pass with no per-row allocation. A row's error quotes the row in its
// pre-processed form.

// parseUptime parses the H:MM:SS uptime format.
//
//mantra:hotpath budget=1
func parseUptime(s string) (time.Duration, error) {
	hs, rest, ok1 := strings.Cut(s, ":")
	ms, ss, ok2 := strings.Cut(rest, ":")
	h, err1 := strconv.Atoi(hs)
	m, err2 := strconv.Atoi(ms)
	sec, err3 := strconv.Atoi(ss)
	if !ok1 || !ok2 || err1 != nil || err2 != nil || err3 != nil || m > 59 || sec > 59 || h < 0 || m < 0 || sec < 0 {
		return 0, fmt.Errorf("tables: malformed uptime %q", s)
	}
	return time.Duration(h)*time.Hour + time.Duration(m)*time.Minute + time.Duration(sec)*time.Second, nil
}

// headerCount extracts N from a dump's "<title> - N entries"-style
// header, its first significant line: N is the field after the last
// field that ends in "-", i.e. what follows the last "- " of the
// pre-processed line.
func headerCount(raw string) (int, bool) {
	sc := collect.ScanLines(raw)
	line, ok := sc.Next()
	if !ok {
		return 0, false
	}
	var prev, count string
	for f, rest := collect.CutField(line); f != ""; f, rest = collect.CutField(rest) {
		if strings.HasSuffix(prev, "-") {
			count = f
		}
		prev = f
	}
	n, err := strconv.Atoi(count)
	return n, err == nil
}

// rowHint sizes a table from its dump's header count, capped by the
// dump's line count so a garbled header cannot force a huge allocation.
func rowHint(raw string) int {
	n, ok := headerCount(raw)
	if !ok || n <= 0 {
		return 0
	}
	return min(n, strings.Count(raw, "\n")+1)
}

// ParseDVMRPRoutes maps a raw `show ip dvmrp route` dump to the Route
// table.
//
//mantra:hotpath budget=4
func ParseDVMRPRoutes(raw string) (RouteTable, error) {
	out := make(RouteTable, 0, rowHint(raw))
	sc := collect.ScanLines(raw)
	for line, ok := sc.Next(); ok; line, ok = sc.Next() {
		if collect.HasFieldPrefix(line, "DVMRP Routing Table") || collect.HasFieldPrefix(line, "Origin-Subnet") {
			continue
		}
		var f [4]string
		if n := collect.Fields(line, f[:]); n != len(f) {
			return nil, fmt.Errorf("tables: dvmrp row %q has %d fields", collect.Normalize(line), n)
		}
		p, err := addr.ParsePrefix(f[0])
		if err != nil {
			return nil, err
		}
		e := RouteEntry{Prefix: p}
		if f[1] == "local" {
			e.Local = true
		} else {
			gw, err := addr.Parse(f[1])
			if err != nil {
				return nil, err
			}
			e.Gateway = gw
		}
		if e.Metric, err = strconv.Atoi(f[2]); err != nil {
			return nil, fmt.Errorf("tables: dvmrp metric %q", f[2])
		}
		if e.Uptime, err = parseUptime(f[3]); err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, nil // an empty table is nil whatever the header claimed
	}
	return out, nil
}

// ParseMroute maps a raw `show ip mroute` dump to the Pair table.
//
//mantra:hotpath budget=5
func ParseMroute(raw string) (PairTable, error) {
	out := make(PairTable, 0, rowHint(raw))
	var flags interner
	sc := collect.ScanLines(raw)
	for line, ok := sc.Next(); ok; line, ok = sc.Next() {
		if collect.HasFieldPrefix(line, "IP Multicast Forwarding Table") || collect.HasFieldPrefix(line, "Source ") {
			continue
		}
		var f [8]string
		if n := collect.Fields(line, f[:]); n != len(f) {
			return nil, fmt.Errorf("tables: mroute row %q has %d fields", collect.Normalize(line), n)
		}
		src, err := addr.Parse(f[0])
		if err != nil {
			return nil, err
		}
		grp, err := addr.Parse(f[1])
		if err != nil {
			return nil, err
		}
		rate, err := strconv.ParseFloat(f[5], 64)
		if err != nil {
			return nil, fmt.Errorf("tables: mroute rate %q", f[5])
		}
		pkts, err := strconv.ParseUint(f[6], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("tables: mroute packets %q", f[6])
		}
		up, err := parseUptime(f[7])
		if err != nil {
			return nil, err
		}
		out = append(out, PairEntry{
			Source: src, Group: grp, Flags: flags.intern(f[2]),
			RateKbps: rate, Packets: pkts, Uptime: up,
		})
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// interner hands out one private copy of each distinct string it is
// given. A parsed entry must not hold a substring of its raw dump — the
// logger would then pin every scraped dump for as long as it keeps the
// entry — and a dump has only a handful of distinct flag strings.
type interner struct {
	seen [8]string
	n    int
}

func (in *interner) intern(s string) string {
	for _, v := range in.seen[:min(in.n, len(in.seen))] {
		if v == s {
			return v
		}
	}
	c := strings.Clone(s)
	in.seen[in.n%len(in.seen)] = c
	in.n++
	return c
}

// ParseIGMP maps a raw `show ip igmp groups` dump.
//
//mantra:hotpath budget=3
func ParseIGMP(raw string) ([]IGMPEntry, error) {
	var out []IGMPEntry
	sc := collect.ScanLines(raw)
	for line, ok := sc.Next(); ok; line, ok = sc.Next() {
		if collect.HasFieldPrefix(line, "IGMP Group Membership") || collect.HasFieldPrefix(line, "Group ") {
			continue
		}
		var f [3]string
		if collect.Fields(line, f[:]) != len(f) {
			return nil, fmt.Errorf("tables: igmp row %q", collect.Normalize(line))
		}
		g, err := addr.Parse(f[0])
		if err != nil {
			return nil, err
		}
		h, err := addr.Parse(f[1])
		if err != nil {
			return nil, err
		}
		up, err := parseUptime(f[2])
		if err != nil {
			return nil, err
		}
		out = append(out, IGMPEntry{Group: g, Host: h, Uptime: up})
	}
	return out, nil
}

// ParseMSDP maps a raw `show ip msdp sa-cache` dump.
//
//mantra:hotpath budget=3
func ParseMSDP(raw string) ([]SAEntry, error) {
	out := make([]SAEntry, 0, rowHint(raw))
	sc := collect.ScanLines(raw)
	for line, ok := sc.Next(); ok; line, ok = sc.Next() {
		if collect.HasFieldPrefix(line, "MSDP Source-Active Cache") || collect.HasFieldPrefix(line, "Source ") {
			continue
		}
		var f [4]string
		if collect.Fields(line, f[:]) != len(f) {
			return nil, fmt.Errorf("tables: msdp row %q", collect.Normalize(line))
		}
		s, err := addr.Parse(f[0])
		if err != nil {
			return nil, err
		}
		g, err := addr.Parse(f[1])
		if err != nil {
			return nil, err
		}
		var rp addr.IP
		if f[2] != "-" {
			if rp, err = addr.Parse(f[2]); err != nil {
				return nil, err
			}
		}
		up, err := parseUptime(f[3])
		if err != nil {
			return nil, err
		}
		out = append(out, SAEntry{Source: s, Group: g, OriginRP: rp, Uptime: up})
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// ParseMBGP maps a raw `show ip mbgp` dump.
//
//mantra:hotpath budget=5
func ParseMBGP(raw string) ([]MBGPEntry, error) {
	out := make([]MBGPEntry, 0, rowHint(raw))
	sc := collect.ScanLines(raw)
	for line, ok := sc.Next(); ok; line, ok = sc.Next() {
		if collect.HasFieldPrefix(line, "MBGP Table") || collect.HasFieldPrefix(line, "Network ") {
			continue
		}
		var f [3]string
		n := collect.Fields(line, f[:])
		if n <= len(f) {
			return nil, fmt.Errorf("tables: mbgp row %q", collect.Normalize(line))
		}
		p, err := addr.ParsePrefix(f[0])
		if err != nil {
			return nil, err
		}
		e := MBGPEntry{Prefix: p, ASPath: make([]int, n-len(f))}
		if f[1] == "local" {
			e.Local = true
		} else if e.NextHop, err = addr.Parse(f[1]); err != nil {
			return nil, err
		}
		if e.Uptime, err = parseUptime(f[2]); err != nil {
			return nil, err
		}
		// The AS path is every field after the first three.
		path := line
		for range f {
			_, path = collect.CutField(path)
		}
		for i := range e.ASPath {
			var as string
			as, path = collect.CutField(path)
			if e.ASPath[i], err = strconv.Atoi(as); err != nil {
				return nil, fmt.Errorf("tables: mbgp AS %q", as)
			}
		}
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// BuildSnapshot assembles one router's cycle snapshot from its dumps,
// dispatching each dump to the right parser by command. Unknown commands
// are skipped. Every dump must share the target and timestamp.
//
//mantra:hotpath budget=4
func BuildSnapshot(dumps []collect.Dump) (*Snapshot, error) {
	if len(dumps) == 0 {
		return nil, fmt.Errorf("tables: no dumps")
	}
	sn := &Snapshot{Target: dumps[0].Target, At: dumps[0].At}
	for _, d := range dumps {
		if d.Target != sn.Target {
			return nil, fmt.Errorf("tables: mixed targets %q and %q", sn.Target, d.Target)
		}
		var err error
		switch d.Command {
		case cmdDVMRP:
			sn.Routes, err = ParseDVMRPRoutes(d.Raw)
		case cmdMroute:
			sn.Pairs, err = ParseMroute(d.Raw)
		case cmdIGMP:
			sn.IGMP, err = ParseIGMP(d.Raw)
		case cmdMSDP:
			sn.SAs, err = ParseMSDP(d.Raw)
		case cmdMBGP:
			sn.MBGP, err = ParseMBGP(d.Raw)
		}
		if err != nil {
			return nil, fmt.Errorf("tables: %s %q: %w", d.Target, d.Command, err)
		}
	}
	// Integrity check: the dump headers announce entry counts; a
	// mismatch means a truncated capture (a dropped telnet session was
	// a real failure mode for expect-driven collection).
	for _, d := range dumps {
		var got int
		switch d.Command {
		case cmdDVMRP:
			got = len(sn.Routes)
		case cmdMroute:
			got = len(sn.Pairs)
		case cmdMSDP:
			got = len(sn.SAs)
		case cmdMBGP:
			got = len(sn.MBGP)
		default:
			continue
		}
		if want, ok := headerCount(d.Raw); ok && got != want {
			return nil, fmt.Errorf("tables: %s %q truncated: header says %d entries, parsed %d",
				d.Target, d.Command, want, got)
		}
	}
	// Anchor uptimes to absolute time so logged entries are stable
	// across cycles.
	for i := range sn.Pairs {
		sn.Pairs[i].Since = sn.At.Add(-sn.Pairs[i].Uptime)
	}
	for i := range sn.Routes {
		sn.Routes[i].Since = sn.At.Add(-sn.Routes[i].Uptime)
	}
	return sn, nil
}

// Participants derives the Participant table from the Pair table.
func (p PairTable) Participants() ParticipantTable {
	agg := make(map[addr.IP]*ParticipantEntry)
	order := make([]addr.IP, 0)
	for _, e := range p {
		pe := agg[e.Source]
		if pe == nil {
			pe = &ParticipantEntry{Host: e.Source}
			agg[e.Source] = pe
			order = append(order, e.Source)
		}
		pe.Groups++
		if e.RateKbps > pe.MaxRateKbps {
			pe.MaxRateKbps = e.RateKbps
		}
		if e.Uptime > pe.Uptime {
			pe.Uptime = e.Uptime
		}
	}
	out := make(ParticipantTable, 0, len(agg))
	for _, h := range order {
		out = append(out, *agg[h])
	}
	return out
}

// Sessions derives the Session table from the Pair table.
func (p PairTable) Sessions() SessionTable {
	agg := make(map[addr.IP]*SessionEntry)
	order := make([]addr.IP, 0)
	for _, e := range p {
		se := agg[e.Group]
		if se == nil {
			se = &SessionEntry{Group: e.Group, Protocol: protocolOf(e.Flags)}
			agg[e.Group] = se
			order = append(order, e.Group)
		}
		se.Density++
		se.TotalRateKbps += e.RateKbps
		se.Packets += e.Packets
		if e.Uptime > se.Uptime {
			se.Uptime = e.Uptime
		}
		if se.Protocol != protocolOf(e.Flags) {
			se.Protocol = "mixed"
		}
	}
	out := make(SessionTable, 0, len(agg))
	for _, g := range order {
		out = append(out, *agg[g])
	}
	return out
}

// protocolOf maps forwarding flags to the advertising protocol name.
func protocolOf(flags string) string {
	if strings.Contains(flags, "S") {
		return "pim"
	}
	if strings.Contains(flags, "D") {
		return "dvmrp"
	}
	return "unknown"
}
