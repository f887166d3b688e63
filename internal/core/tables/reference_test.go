package tables_test

// The reference dump path: collect.Preprocess and the table parsers as
// they were before the in-place cursor, built on strings.Split and
// strings.Fields over materialized lines. FuzzBuildSnapshotMatchesReference
// holds BuildSnapshot to this path — same snapshot, same error text — on
// arbitrary dumps, because gap reasons carry that text into WAL gap
// markers and fleet JSON.

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/core/collect"
	"repro/internal/core/tables"
	"repro/internal/netsim"
	"repro/internal/router"
	"repro/internal/topo"
	"repro/internal/workload"
)

func refPreprocess(raw string) []string {
	var out []string
	for _, line := range strings.Split(raw, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "%") {
			continue
		}
		out = append(out, strings.Join(strings.Fields(line), " "))
	}
	return out
}

func refParseUptime(s string) (time.Duration, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, fmt.Errorf("tables: malformed uptime %q", s)
	}
	h, err1 := strconv.Atoi(parts[0])
	m, err2 := strconv.Atoi(parts[1])
	sec, err3 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil || err3 != nil || m > 59 || sec > 59 || h < 0 || m < 0 || sec < 0 {
		return 0, fmt.Errorf("tables: malformed uptime %q", s)
	}
	return time.Duration(h)*time.Hour + time.Duration(m)*time.Minute + time.Duration(sec)*time.Second, nil
}

func refHeaderCount(line string) (int, bool) {
	i := strings.LastIndex(line, "- ")
	if i < 0 {
		return 0, false
	}
	fields := strings.Fields(line[i+2:])
	if len(fields) < 1 {
		return 0, false
	}
	n, err := strconv.Atoi(fields[0])
	return n, err == nil
}

func refParseDVMRPRoutes(lines []string) (tables.RouteTable, error) {
	var out tables.RouteTable
	for _, line := range lines {
		if strings.HasPrefix(line, "DVMRP Routing Table") || strings.HasPrefix(line, "Origin-Subnet") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("tables: dvmrp row %q has %d fields", line, len(f))
		}
		p, err := addr.ParsePrefix(f[0])
		if err != nil {
			return nil, err
		}
		e := tables.RouteEntry{Prefix: p}
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
		if e.Uptime, err = refParseUptime(f[3]); err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

func refParseMroute(lines []string) (tables.PairTable, error) {
	var out tables.PairTable
	for _, line := range lines {
		if strings.HasPrefix(line, "IP Multicast Forwarding Table") || strings.HasPrefix(line, "Source ") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 8 {
			return nil, fmt.Errorf("tables: mroute row %q has %d fields", line, len(f))
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
		up, err := refParseUptime(f[7])
		if err != nil {
			return nil, err
		}
		out = append(out, tables.PairEntry{
			Source: src, Group: grp, Flags: f[2],
			RateKbps: rate, Packets: pkts, Uptime: up,
		})
	}
	return out, nil
}

func refParseIGMP(lines []string) ([]tables.IGMPEntry, error) {
	var out []tables.IGMPEntry
	for _, line := range lines {
		if strings.HasPrefix(line, "IGMP Group Membership") || strings.HasPrefix(line, "Group ") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("tables: igmp row %q", line)
		}
		g, err := addr.Parse(f[0])
		if err != nil {
			return nil, err
		}
		h, err := addr.Parse(f[1])
		if err != nil {
			return nil, err
		}
		up, err := refParseUptime(f[2])
		if err != nil {
			return nil, err
		}
		out = append(out, tables.IGMPEntry{Group: g, Host: h, Uptime: up})
	}
	return out, nil
}

func refParseMSDP(lines []string) ([]tables.SAEntry, error) {
	var out []tables.SAEntry
	for _, line := range lines {
		if strings.HasPrefix(line, "MSDP Source-Active Cache") || strings.HasPrefix(line, "Source ") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("tables: msdp row %q", line)
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
		up, err := refParseUptime(f[3])
		if err != nil {
			return nil, err
		}
		out = append(out, tables.SAEntry{Source: s, Group: g, OriginRP: rp, Uptime: up})
	}
	return out, nil
}

func refParseMBGP(lines []string) ([]tables.MBGPEntry, error) {
	var out []tables.MBGPEntry
	for _, line := range lines {
		if strings.HasPrefix(line, "MBGP Table") || strings.HasPrefix(line, "Network ") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			return nil, fmt.Errorf("tables: mbgp row %q", line)
		}
		p, err := addr.ParsePrefix(f[0])
		if err != nil {
			return nil, err
		}
		e := tables.MBGPEntry{Prefix: p}
		if f[1] == "local" {
			e.Local = true
		} else if e.NextHop, err = addr.Parse(f[1]); err != nil {
			return nil, err
		}
		if e.Uptime, err = refParseUptime(f[2]); err != nil {
			return nil, err
		}
		for _, as := range f[3:] {
			v, err := strconv.Atoi(as)
			if err != nil {
				return nil, fmt.Errorf("tables: mbgp AS %q", as)
			}
			e.ASPath = append(e.ASPath, v)
		}
		out = append(out, e)
	}
	return out, nil
}

func refBuildSnapshot(dumps []collect.Dump) (*tables.Snapshot, error) {
	if len(dumps) == 0 {
		return nil, fmt.Errorf("tables: no dumps")
	}
	sn := &tables.Snapshot{Target: dumps[0].Target, At: dumps[0].At}
	for _, d := range dumps {
		if d.Target != sn.Target {
			return nil, fmt.Errorf("tables: mixed targets %q and %q", sn.Target, d.Target)
		}
		lines := refPreprocess(d.Raw)
		var err error
		switch d.Command {
		case "show ip dvmrp route":
			sn.Routes, err = refParseDVMRPRoutes(lines)
		case "show ip mroute":
			sn.Pairs, err = refParseMroute(lines)
		case "show ip igmp groups":
			sn.IGMP, err = refParseIGMP(lines)
		case "show ip msdp sa-cache":
			sn.SAs, err = refParseMSDP(lines)
		case "show ip mbgp":
			sn.MBGP, err = refParseMBGP(lines)
		}
		if err != nil {
			return nil, fmt.Errorf("tables: %s %q: %w", d.Target, d.Command, err)
		}
	}
	for _, d := range dumps {
		lines := refPreprocess(d.Raw)
		if len(lines) == 0 {
			continue
		}
		want, ok := refHeaderCount(lines[0])
		if !ok {
			continue
		}
		var got int
		switch d.Command {
		case "show ip dvmrp route":
			got = len(sn.Routes)
		case "show ip mroute":
			got = len(sn.Pairs)
		case "show ip msdp sa-cache":
			got = len(sn.SAs)
		case "show ip mbgp":
			got = len(sn.MBGP)
		default:
			continue
		}
		if got != want {
			return nil, fmt.Errorf("tables: %s %q truncated: header says %d entries, parsed %d",
				d.Target, d.Command, want, got)
		}
	}
	for i := range sn.Pairs {
		sn.Pairs[i].Since = sn.At.Add(-sn.Pairs[i].Uptime)
	}
	for i := range sn.Routes {
		sn.Routes[i].Since = sn.At.Add(-sn.Routes[i].Uptime)
	}
	return sn, nil
}

// fuzzCommands indexes the dump commands the fuzzer assigns to inputs:
// the collected set plus one BuildSnapshot must skip.
var fuzzCommands = append(append([]string(nil), collect.StandardCommands...), "show clock")

// seedDumps scrapes fixw's standard dumps cleanly and through the
// fault-injecting router (truncated and garbled sessions), the shapes
// real collection hands the parser.
func seedDumps(tb testing.TB) []collect.Dump {
	cfg := topo.DefaultInternetConfig()
	cfg.NumDomains = 3
	inet := topo.BuildInternet(cfg)
	n := netsim.New(inet, workload.New(workload.DefaultConfig(), inet.Topo), netsim.DefaultConfig())
	if err := n.Track("fixw"); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		n.Step()
	}
	var out []collect.Dump
	for _, profile := range []router.FaultProfile{
		{},
		{Truncate: 1},
		{Garble: 1, GarblePerLine: 2},
		{Truncate: 1, TruncateAfter: 40},
	} {
		tgt := collect.Target{
			Name:    "fixw",
			Dialer:  collect.PipeDialer{Router: n.FaultyRouter("fixw", profile)},
			Prompt:  "fixw> ",
			Timeout: 2 * time.Second,
		}
		dumps, _ := collect.CollectAll(tgt, collect.StandardCommands, n.Now())
		out = append(out, dumps...)
	}
	return out
}

// FuzzBuildSnapshotMatchesReference feeds BuildSnapshot two dumps under
// fuzzed commands and contents and requires the reference path's
// snapshot, or its exact error text.
func FuzzBuildSnapshotMatchesReference(f *testing.F) {
	index := func(cmd string) uint8 {
		for i, c := range fuzzCommands {
			if c == cmd {
				return uint8(i)
			}
		}
		return uint8(len(fuzzCommands) - 1)
	}
	dumps := seedDumps(f)
	for i, d := range dumps {
		next := dumps[(i+1)%len(dumps)]
		f.Add(index(d.Command), d.Raw, index(next.Command), next.Raw)
	}
	f.Add(uint8(0), "DVMRP Routing Table - 1 entries\n  10.0.0.0/8\tlocal  0 1:00:00 \r\n", uint8(0), "")
	f.Add(uint8(0), "DVMRP Routing Table - 5 entries\n% bad\n", uint8(5), "MBGP Table - 1 entries\n10.0.0.0/8 local 1:00:00 1 +2 -3\n")
	f.Add(uint8(1), "Source\u0085x\n1.2.3.4 224.1.1.1 DP 1 - NaN 5 1:02:03\n", uint8(4), "- -\n1.2.3.4 224.1.1.1 - 0:00:00\n")
	f.Add(uint8(2), "IGMP Group Membership - 1 groups, 2 members\nGroup  \xff\n", uint8(3), "")
	f.Add(uint8(0), "DVMRP Routing Table - 9 -\t1 entries\n10.0.0.0/8 local 0 1:00:00\n", uint8(6), "x -- 0\n")
	f.Fuzz(func(t *testing.T, c1 uint8, raw1 string, c2 uint8, raw2 string) {
		in := []collect.Dump{
			{Target: "fixw", Command: fuzzCommands[int(c1)%len(fuzzCommands)], Raw: raw1},
			{Target: "fixw", Command: fuzzCommands[int(c2)%len(fuzzCommands)], Raw: raw2},
		}
		got, gotErr := tables.BuildSnapshot(in)
		want, wantErr := refBuildSnapshot(in)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("error = %v, reference %v", gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("snapshot = %+v, reference %+v", got, want)
		}
	})
}
