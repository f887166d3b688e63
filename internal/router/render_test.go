package router_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core/collect"
	"repro/internal/dvmrp"
	"repro/internal/mbgp"
	"repro/internal/netsim"
	"repro/internal/router"
	"repro/internal/topo"
	"repro/internal/workload"
)

// The reference renderers: the table dumps as they were written with one
// fmt.Fprintf per row. TestRenderMatchesReference holds Router.Execute's
// append-based renderers to them byte for byte, so the monitor faces
// exactly the input it always has.

func refDur(d time.Duration) string {
	if d < 0 {
		d = 0
	}
	total := int64(d / time.Second)
	return fmt.Sprintf("%d:%02d:%02d", total/3600, total/60%60, total%60)
}

func refInts[T int | uint16](vs []T, sep, empty string) string {
	if len(vs) == 0 {
		return empty
	}
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, sep)
}

func refShowDVMRPRoute(r *router.Router) string {
	now := r.Clock.Now()
	var b strings.Builder
	if r.DVMRP == nil || !r.DVMRP.HasRouter(r.Spec.ID) {
		b.WriteString("DVMRP Routing Table - 0 entries\n")
		return b.String()
	}
	routes := r.DVMRP.Table(r.Spec.ID)
	fmt.Fprintf(&b, "DVMRP Routing Table - %d entries\n", len(routes))
	b.WriteString("Origin-Subnet       From-Gateway     Metric  Uptime\n")
	for _, rt := range routes {
		gw := "local"
		if rt.Via != dvmrp.SelfOrigin {
			if n := r.Topo.Router(rt.Via); n != nil {
				gw = n.Loopback.String()
			}
		}
		fmt.Fprintf(&b, "%-19s %-16s %-7d %s\n",
			rt.Prefix, gw, rt.Metric, refDur(now.Sub(rt.Since)))
	}
	return b.String()
}

func refShowMroute(r *router.Router) string {
	now := r.Clock.Now()
	entries := r.FWD.Entries()
	var b strings.Builder
	fmt.Fprintf(&b, "IP Multicast Forwarding Table - %d entries\n", len(entries))
	b.WriteString("Source           Group            Flags  IIF  OIFs           Kbps      Pkts        Uptime\n")
	for _, e := range entries {
		fmt.Fprintf(&b, "%-16s %-16s %-6s %-4d %-14s %-9.1f %-11d %s\n",
			e.Key.Source, e.Key.Group, e.Flags, e.IIF, refInts(e.OIFs, ",", "-"),
			e.RateKbps, e.Packets, refDur(now.Sub(e.Created)))
	}
	return b.String()
}

func refShowIGMPGroups(r *router.Router) string {
	now := r.Clock.Now()
	var b strings.Builder
	groups := r.IGMP.Groups()
	total := 0
	for _, g := range groups {
		total += r.IGMP.MemberCount(g)
	}
	fmt.Fprintf(&b, "IGMP Group Membership - %d groups, %d members\n", len(groups), total)
	b.WriteString("Group            Host             Uptime\n")
	for _, g := range groups {
		for _, m := range r.IGMP.Members(g) {
			fmt.Fprintf(&b, "%-16s %-16s %s\n", m.Group, m.Host, refDur(now.Sub(m.Since)))
		}
	}
	return b.String()
}

func refShowPIMGroups(r *router.Router) string {
	now := r.Clock.Now()
	stars := r.PIM.Stars()
	var b strings.Builder
	fmt.Fprintf(&b, "PIM Group Table - %d entries\n", len(stars))
	b.WriteString("Group            RP               IIF  OIFs           Local  Uptime\n")
	for _, s := range stars {
		rp := "-"
		if n := r.Topo.Router(s.RP); n != nil {
			rp = n.Loopback.String()
		}
		local := "no"
		if s.LocalMembers {
			local = "yes"
		}
		fmt.Fprintf(&b, "%-16s %-16s %-4d %-14s %-6s %s\n",
			s.Group, rp, s.IIF, refInts(s.OIFs, ",", "-"), local, refDur(now.Sub(s.Created)))
	}
	return b.String()
}

func refShowMSDPSACache(r *router.Router) string {
	now := r.Clock.Now()
	var b strings.Builder
	if r.MSDP == nil || !r.MSDP.HasRP(r.Spec.ID) {
		b.WriteString("MSDP Source-Active Cache - 0 entries\n")
		return b.String()
	}
	cache := r.MSDP.Cache(r.Spec.ID)
	fmt.Fprintf(&b, "MSDP Source-Active Cache - %d entries\n", len(cache))
	b.WriteString("Source           Group            Origin-RP        Uptime\n")
	for _, e := range cache {
		rp := "-"
		if n := r.Topo.Router(e.OriginRP); n != nil {
			rp = n.Loopback.String()
		}
		fmt.Fprintf(&b, "%-16s %-16s %-16s %s\n",
			e.Source, e.Group, rp, refDur(now.Sub(e.First)))
	}
	return b.String()
}

func refShowMBGP(r *router.Router) string {
	now := r.Clock.Now()
	var b strings.Builder
	if r.MBGP == nil || !r.MBGP.HasSpeaker(r.Spec.ID) {
		b.WriteString("MBGP Table - 0 entries\n")
		return b.String()
	}
	routes := r.MBGP.Table(r.Spec.ID)
	fmt.Fprintf(&b, "MBGP Table - %d entries\n", len(routes))
	b.WriteString("Network             Next-Hop         Uptime    Path\n")
	for _, rt := range routes {
		hop := "local"
		if rt.Via != mbgp.SelfOrigin {
			hop = rt.NextHop.String()
		}
		fmt.Fprintf(&b, "%-19s %-16s %-9s %s\n",
			rt.Prefix, hop, refDur(now.Sub(rt.Since)), refInts(rt.ASPath, " ", ""))
	}
	return b.String()
}

// refRender maps every standard dump command to its reference renderer.
var refRender = map[string]func(*router.Router) string{
	"show ip dvmrp route":   refShowDVMRPRoute,
	"show ip mroute":        refShowMroute,
	"show ip igmp groups":   refShowIGMPGroups,
	"show ip pim group":     refShowPIMGroups,
	"show ip msdp sa-cache": refShowMSDPSACache,
	"show ip mbgp":          refShowMBGP,
}

// TestRenderMatchesReference steps a four-domain internetwork with every
// router tracked and compares each router's dumps for every standard
// command with the reference, before and after a sparse-mode transition.
func TestRenderMatchesReference(t *testing.T) {
	cfg := topo.DefaultInternetConfig()
	cfg.NumDomains = 4
	inet := topo.BuildInternet(cfg)
	n := netsim.New(inet, workload.New(workload.DefaultConfig(), inet.Topo), netsim.DefaultConfig())
	for _, r := range n.Topo.Routers() {
		n.TrackIDs(r.ID)
	}
	// check compares every dump and returns the data rows (lines past
	// the header and column titles) each command rendered.
	check := func(phase string) map[string]int {
		t.Helper()
		rows := make(map[string]int)
		for _, spec := range n.Topo.Routers() {
			r := n.RouterByID(spec.ID)
			for _, cmd := range collect.StandardCommands {
				ref, ok := refRender[cmd]
				if !ok {
					t.Fatalf("no reference renderer for %q", cmd)
				}
				got, want := r.Execute(cmd), ref(r)
				if got != want {
					t.Fatalf("%s: %s %q differs from the reference:\n got %.300q\nwant %.300q", phase, spec.Name, cmd, got, want)
				}
				rows[cmd] += max(0, strings.Count(got, "\n")-2)
			}
		}
		return rows
	}
	for i := 0; i < 6; i++ {
		n.Step()
	}
	dense := check("dense")
	n.TransitionDomain("dom00")
	for i := 0; i < 6; i++ {
		n.Step()
	}
	sparse := check("after sparse-mode transition")
	for _, cmd := range collect.StandardCommands {
		if dense[cmd] == 0 && sparse[cmd] == 0 {
			t.Errorf("no %q rows rendered", cmd)
		}
	}
	if sparse["show ip pim group"] == 0 {
		t.Error("no (*,G) rows after the sparse-mode transition")
	}
}
