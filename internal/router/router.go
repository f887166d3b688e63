// Package router assembles one simulated multicast router: its protocol
// state handles (DVMRP table, MBGP RIB, PIM state, IGMP membership, MSDP
// SA cache, forwarding cache) and the operator-facing command-line
// interface Mantra scrapes.
//
// The paper's Mantra collects data by logging into routers with expect
// scripts and dumping internal tables — it deliberately avoids SNMP
// because the era's MIBs did not cover PIM and none existed for MSDP. The
// CLI formats here therefore mimic the mrouted / IOS dumps of the period
// closely enough that a scraping pipeline faces the same parsing work.
package router

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dvmrp"
	"repro/internal/forwarding"
	"repro/internal/igmp"
	"repro/internal/mbgp"
	"repro/internal/msdp"
	"repro/internal/pim"
	"repro/internal/topo"
)

// Router is one simulated multicast router with its CLI.
type Router struct {
	// Spec is the topology node this router realizes.
	Spec *topo.Router
	// Topo gives access to link/neighbor naming for dumps.
	Topo *topo.Topology
	// Clock reports virtual time for uptime rendering.
	Clock interface{ Now() time.Time }

	// DVMRP is the shared cloud; nil when the router never speaks DVMRP.
	DVMRP *dvmrp.Cloud
	// MBGP is the shared mesh; nil likewise.
	MBGP *mbgp.Mesh
	// MSDP is the shared SA mesh; nil likewise.
	MSDP *msdp.Mesh
	// IGMP is this router's membership database.
	IGMP *igmp.Router
	// PIM is this router's sparse-mode state.
	PIM *pim.Router
	// FWD is this router's forwarding cache.
	FWD *forwarding.Table

	// Password gates CLI sessions. Empty disables authentication.
	Password string
}

// Hostname returns the router's CLI hostname.
func (r *Router) Hostname() string { return r.Spec.Name }

// Execute runs one already-authenticated CLI command and returns its
// output. Unknown commands return an IOS-style error marker.
func (r *Router) Execute(cmd string) string {
	fields := strings.Fields(strings.TrimSpace(cmd))
	if len(fields) == 0 {
		return ""
	}
	switch {
	case matches(fields, "show", "version"):
		return r.showVersion()
	case matches(fields, "show", "ip", "dvmrp", "route"):
		return r.showDVMRPRoute()
	case matches(fields, "show", "ip", "dvmrp", "neighbor"):
		return r.showDVMRPNeighbors()
	case matches(fields, "show", "ip", "mroute"):
		return r.showMroute()
	case matches(fields, "show", "ip", "igmp", "groups"):
		return r.showIGMPGroups()
	case matches(fields, "show", "ip", "pim", "group"):
		return r.showPIMGroups()
	case matches(fields, "show", "ip", "pim", "neighbor"):
		return r.showPIMNeighbors()
	case matches(fields, "show", "ip", "msdp", "sa-cache"):
		return r.showMSDPSACache()
	case matches(fields, "show", "ip", "mbgp"):
		return r.showMBGP()
	case matches(fields, "terminal", "length", "0"):
		return ""
	case matches(fields, "help") || matches(fields, "?"):
		return helpText
	}
	return "% Invalid input detected\n"
}

func matches(fields []string, want ...string) bool {
	if len(fields) != len(want) {
		return false
	}
	for i, w := range want {
		if fields[i] != w {
			return false
		}
	}
	return true
}

const helpText = `Available commands:
  show version
  show ip dvmrp route
  show ip dvmrp neighbor
  show ip mroute
  show ip igmp groups
  show ip pim group
  show ip pim neighbor
  show ip msdp sa-cache
  show ip mbgp
  terminal length 0
  exit
`

// The table dumps are rendered by appending into one presized buffer:
// strconv for numbers, AppendTo for addresses and manual padding for the
// fixed-width columns, byte-for-byte what the per-row fmt.Fprintf of the
// formats noted on each renderer produced, without formatting through
// interfaces per row. Every column holds ASCII, so byte width is column
// width.

// pad appends spaces until the column that began at start is w wide:
// fmt's %-*s and %-*d.
func pad(b []byte, start, w int) []byte {
	for n := len(b) - start; n < w; n++ {
		b = append(b, ' ')
	}
	return b
}

// appendDur appends a duration as H:MM:SS (hours unbounded), the uptime
// format the table parsers consume.
func appendDur(b []byte, d time.Duration) []byte {
	if d < 0 {
		d = 0
	}
	total := int64(d / time.Second)
	b = strconv.AppendInt(b, total/3600, 10)
	m, s := total/60%60, total%60
	return append(b, ':', byte('0'+m/10), byte('0'+m%10), ':', byte('0'+s/10), byte('0'+s%10))
}

// appendInts appends a comma- or space-separated integer list, or "-"
// when it is empty and dash is set.
func appendInts[T int | uint16](b []byte, vs []T, sep byte, dash bool) []byte {
	if len(vs) == 0 && dash {
		return append(b, '-')
	}
	for i, v := range vs {
		if i > 0 {
			b = append(b, sep)
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

// appendHeader appends "<title> - <n> <unit>\n".
func appendHeader(b []byte, title string, n int, unit string) []byte {
	b = append(b, title...)
	b = append(b, " - "...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, ' ')
	b = append(b, unit...)
	return append(b, '\n')
}

// loopback appends the loopback address of router id, or alt when the
// topology has no such router.
func (r *Router) loopback(b []byte, id topo.NodeID, alt string) []byte {
	if n := r.Topo.Router(id); n != nil {
		return n.Loopback.AppendTo(b)
	}
	return append(b, alt...)
}

func (r *Router) showVersion() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s uptime is %s\n", r.Spec.Name, string(appendDur(nil, 24*time.Hour)))
	fmt.Fprintf(&b, "mode %s, loopback %s, domain %q\n", r.Spec.Mode, r.Spec.Loopback, r.Spec.Domain)
	return b.String()
}

// showDVMRPRoute renders rows as "%-19s %-16s %-7d %s\n".
func (r *Router) showDVMRPRoute() string {
	const title = "DVMRP Routing Table"
	if r.DVMRP == nil || !r.DVMRP.HasRouter(r.Spec.ID) {
		return title + " - 0 entries\n"
	}
	now := r.Clock.Now()
	routes := r.DVMRP.Table(r.Spec.ID)
	b := make([]byte, 0, 96+64*len(routes))
	b = appendHeader(b, title, len(routes), "entries")
	b = append(b, "Origin-Subnet       From-Gateway     Metric  Uptime\n"...)
	for _, rt := range routes {
		col := len(b)
		b = append(pad(rt.Prefix.AppendTo(b), col, 19), ' ')
		col = len(b)
		if rt.Via == dvmrp.SelfOrigin {
			b = append(b, "local"...)
		} else {
			b = r.loopback(b, rt.Via, "local")
		}
		b = append(pad(b, col, 16), ' ')
		col = len(b)
		b = append(pad(strconv.AppendInt(b, int64(rt.Metric), 10), col, 7), ' ')
		b = append(appendDur(b, now.Sub(rt.Since)), '\n')
	}
	return string(b)
}

func (r *Router) showDVMRPNeighbors() string {
	var b strings.Builder
	if r.DVMRP == nil || !r.DVMRP.HasRouter(r.Spec.ID) {
		b.WriteString("DVMRP Neighbor Table - 0 neighbors\n")
		return b.String()
	}
	ids := r.DVMRP.Neighbors(r.Spec.ID)
	fmt.Fprintf(&b, "DVMRP Neighbor Table - %d neighbors\n", len(ids))
	b.WriteString("Address          Name\n")
	for _, id := range ids {
		n := r.Topo.Router(id)
		if n == nil {
			continue
		}
		fmt.Fprintf(&b, "%-16s %s\n", n.Loopback, n.Name)
	}
	return b.String()
}

// showMroute renders rows as
// "%-16s %-16s %-6s %-4d %-14s %-9.1f %-11d %s\n".
func (r *Router) showMroute() string {
	now := r.Clock.Now()
	entries := r.FWD.Entries()
	b := make([]byte, 0, 128+112*len(entries))
	b = appendHeader(b, "IP Multicast Forwarding Table", len(entries), "entries")
	b = append(b, "Source           Group            Flags  IIF  OIFs           Kbps      Pkts        Uptime\n"...)
	for _, e := range entries {
		col := len(b)
		b = append(pad(e.Key.Source.AppendTo(b), col, 16), ' ')
		col = len(b)
		b = append(pad(e.Key.Group.AppendTo(b), col, 16), ' ')
		col = len(b)
		b = append(pad(e.Flags.AppendTo(b), col, 6), ' ')
		col = len(b)
		b = append(pad(strconv.AppendInt(b, int64(e.IIF), 10), col, 4), ' ')
		col = len(b)
		b = append(pad(appendInts(b, e.OIFs, ',', true), col, 14), ' ')
		col = len(b)
		b = append(pad(strconv.AppendFloat(b, e.RateKbps, 'f', 1, 64), col, 9), ' ')
		col = len(b)
		b = append(pad(strconv.AppendUint(b, e.Packets, 10), col, 11), ' ')
		b = append(appendDur(b, now.Sub(e.Created)), '\n')
	}
	return string(b)
}

// showIGMPGroups renders rows as "%-16s %-16s %s\n".
func (r *Router) showIGMPGroups() string {
	now := r.Clock.Now()
	groups := r.IGMP.Groups()
	total := 0
	for _, g := range groups {
		total += r.IGMP.MemberCount(g)
	}
	b := make([]byte, 0, 96+48*total)
	b = append(b, "IGMP Group Membership - "...)
	b = strconv.AppendInt(b, int64(len(groups)), 10)
	b = append(b, " groups, "...)
	b = strconv.AppendInt(b, int64(total), 10)
	b = append(b, " members\n"...)
	b = append(b, "Group            Host             Uptime\n"...)
	for _, g := range groups {
		for _, m := range r.IGMP.Members(g) {
			col := len(b)
			b = append(pad(m.Group.AppendTo(b), col, 16), ' ')
			col = len(b)
			b = append(pad(m.Host.AppendTo(b), col, 16), ' ')
			b = append(appendDur(b, now.Sub(m.Since)), '\n')
		}
	}
	return string(b)
}

// showPIMGroups renders rows as "%-16s %-16s %-4d %-14s %-6s %s\n".
func (r *Router) showPIMGroups() string {
	now := r.Clock.Now()
	stars := r.PIM.Stars()
	b := make([]byte, 0, 96+96*len(stars))
	b = appendHeader(b, "PIM Group Table", len(stars), "entries")
	b = append(b, "Group            RP               IIF  OIFs           Local  Uptime\n"...)
	for _, s := range stars {
		col := len(b)
		b = append(pad(s.Group.AppendTo(b), col, 16), ' ')
		col = len(b)
		b = append(pad(r.loopback(b, s.RP, "-"), col, 16), ' ')
		col = len(b)
		b = append(pad(strconv.AppendInt(b, int64(s.IIF), 10), col, 4), ' ')
		col = len(b)
		b = append(pad(appendInts(b, s.OIFs, ',', true), col, 14), ' ')
		col = len(b)
		local := "no"
		if s.LocalMembers {
			local = "yes"
		}
		b = append(pad(append(b, local...), col, 6), ' ')
		b = append(appendDur(b, now.Sub(s.Created)), '\n')
	}
	return string(b)
}

func (r *Router) showPIMNeighbors() string {
	var b strings.Builder
	var rows []string
	if r.Spec.Mode == topo.ModePIMSM || r.Spec.Mode == topo.ModeBorder {
		native := r.Topo.NativeLinks()
		for _, l := range r.Topo.LinksOf(r.Spec.ID) {
			if !l.Up || !native(l) {
				continue
			}
			other := r.Topo.Router(l.Other(r.Spec.ID).Router)
			if other == nil {
				continue
			}
			rows = append(rows, fmt.Sprintf("%-16s %-16s link-%d",
				other.Loopback, other.Name, l.ID))
		}
	}
	sort.Strings(rows)
	fmt.Fprintf(&b, "PIM Neighbor Table - %d neighbors\n", len(rows))
	b.WriteString("Address          Name             Interface\n")
	for _, row := range rows {
		b.WriteString(row + "\n")
	}
	return b.String()
}

// showMSDPSACache renders rows as "%-16s %-16s %-16s %s\n".
func (r *Router) showMSDPSACache() string {
	const title = "MSDP Source-Active Cache"
	if r.MSDP == nil || !r.MSDP.HasRP(r.Spec.ID) {
		return title + " - 0 entries\n"
	}
	now := r.Clock.Now()
	cache := r.MSDP.Cache(r.Spec.ID)
	b := make([]byte, 0, 96+72*len(cache))
	b = appendHeader(b, title, len(cache), "entries")
	b = append(b, "Source           Group            Origin-RP        Uptime\n"...)
	for _, e := range cache {
		col := len(b)
		b = append(pad(e.Source.AppendTo(b), col, 16), ' ')
		col = len(b)
		b = append(pad(e.Group.AppendTo(b), col, 16), ' ')
		col = len(b)
		b = append(pad(r.loopback(b, e.OriginRP, "-"), col, 16), ' ')
		b = append(appendDur(b, now.Sub(e.First)), '\n')
	}
	return string(b)
}

// showMBGP renders rows as "%-19s %-16s %-9s %s\n", the last column
// the AS path.
func (r *Router) showMBGP() string {
	const title = "MBGP Table"
	if r.MBGP == nil || !r.MBGP.HasSpeaker(r.Spec.ID) {
		return title + " - 0 entries\n"
	}
	now := r.Clock.Now()
	routes := r.MBGP.Table(r.Spec.ID)
	b := make([]byte, 0, 96+72*len(routes))
	b = appendHeader(b, title, len(routes), "entries")
	b = append(b, "Network             Next-Hop         Uptime    Path\n"...)
	for _, rt := range routes {
		col := len(b)
		b = append(pad(rt.Prefix.AppendTo(b), col, 19), ' ')
		col = len(b)
		if rt.Via == mbgp.SelfOrigin {
			b = append(b, "local"...)
		} else {
			b = rt.NextHop.AppendTo(b)
		}
		b = append(pad(b, col, 16), ' ')
		col = len(b)
		b = append(pad(appendDur(b, now.Sub(rt.Since)), col, 9), ' ')
		b = append(appendInts(b, rt.ASPath, ' ', false), '\n')
	}
	return string(b)
}

// HandleSession runs a login-then-REPL CLI session over rw, returning when
// the peer sends "exit" or closes the stream. The wire protocol is plain
// lines: a "Password: " prompt (if a password is set), then "<name)> "
// prompts. This is what the collector's expect scripts drive.
func (r *Router) HandleSession(rw io.ReadWriter) error {
	return r.handleSessionWith(rw, r.Execute)
}

// handleSessionWith is HandleSession with a pluggable command executor,
// the seam the fault-injection layer uses to corrupt dumps without
// duplicating the session protocol.
func (r *Router) handleSessionWith(rw io.ReadWriter, exec func(string) string) error {
	w := bufio.NewWriter(rw)
	scan := bufio.NewScanner(rw)
	scan.Buffer(make([]byte, 64*1024), 1024*1024)

	prompt := r.Spec.Name + "> "
	if r.Password != "" {
		for attempt := 0; ; attempt++ {
			if _, err := w.WriteString("Password: "); err != nil {
				return err
			}
			if err := w.Flush(); err != nil {
				return err
			}
			if !scan.Scan() {
				return scan.Err()
			}
			if scan.Text() == r.Password {
				break
			}
			if attempt >= 2 {
				fmt.Fprintln(w, "% Bad passwords")
				return w.Flush()
			}
			fmt.Fprintln(w, "% Access denied")
		}
	}
	for {
		if _, err := w.WriteString(prompt); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
		if !scan.Scan() {
			return scan.Err()
		}
		line := strings.TrimSpace(scan.Text())
		if line == "exit" || line == "quit" || line == "logout" {
			fmt.Fprintln(w, "Connection closed.")
			return w.Flush()
		}
		if _, err := w.WriteString(exec(line)); err != nil {
			return err
		}
	}
}

// ServeTCP accepts CLI sessions on l until the listener closes. Each
// connection is served on its own goroutine; router state reads are safe
// because the simulator mutates state only between collection cycles and
// the collector drives collection synchronously.
func (r *Router) ServeTCP(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go func(c net.Conn) {
			defer c.Close()
			_ = r.HandleSession(c)
		}(conn)
	}
}
