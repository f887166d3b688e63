package collect_test

import (
	"strings"
	"testing"

	"repro/internal/core/collect"
)

// refPreprocess is Preprocess as it was before the in-place cursor:
// split, trim and re-join every line.
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

// checkCursor compares the cursor's view of raw with the reference
// pre-processor's: the same significant lines, each with the same fields,
// the same normalized form, and the same answer to every prefix test of
// that form.
func checkCursor(t *testing.T, raw string, prefixes ...string) {
	t.Helper()
	want := refPreprocess(raw)
	if got := collect.Preprocess(raw); strings.Join(got, "\n") != strings.Join(want, "\n") || len(got) != len(want) {
		t.Fatalf("Preprocess(%q) = %q, reference %q", raw, got, want)
	}
	sc := collect.ScanLines(raw)
	i := 0
	for line, ok := sc.Next(); ok; line, ok = sc.Next() {
		if i >= len(want) {
			t.Fatalf("cursor yields extra line %q from %q", line, raw)
		}
		if got := collect.Normalize(line); got != want[i] {
			t.Fatalf("Normalize(%q) = %q, reference %q", line, got, want[i])
		}
		wantFields := strings.Fields(line)
		var dst [3]string
		n := collect.Fields(line, dst[:])
		if n != len(wantFields) {
			t.Fatalf("Fields(%q) counted %d, strings.Fields %d", line, n, len(wantFields))
		}
		for k := 0; k < min(n, len(dst)); k++ {
			if dst[k] != wantFields[k] {
				t.Fatalf("Fields(%q)[%d] = %q, strings.Fields %q", line, k, dst[k], wantFields[k])
			}
		}
		for _, p := range append(prefixes, want[i], want[i]+" ", want[i][:len(want[i])/2]) {
			if got, ref := collect.HasFieldPrefix(line, p), strings.HasPrefix(want[i], p); got != ref {
				t.Fatalf("HasFieldPrefix(%q, %q) = %v, reference %v", line, p, got, ref)
			}
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("cursor yields %d lines from %q, reference %d", i, raw, len(want))
	}
}

func TestCursorMatchesReference(t *testing.T) {
	for _, raw := range []string{
		"",
		"\n\n",
		"DVMRP Routing Table - 2 entries\nOrigin-Subnet  From\n10.0.0.0/8 local 0 1:00:00\n",
		"  a   b\t c  \r\n% error\n  %also\nnext\n",
		"one\n\rtwo\n\rthree",
		"Source Group x\n lead and trail　\n",
		"bad \xff utf8\xc2\n\xc2\x85nel\x85\n",
		"x\v\fy\n",
	} {
		checkCursor(t, raw, "Source ", "DVMRP Routing Table", "a b", "")
	}
}

// FuzzCursorMatchesReference holds the in-place cursor, and Preprocess
// built on it, to the split-and-join reference on arbitrary input.
func FuzzCursorMatchesReference(f *testing.F) {
	for _, s := range faultySeeds(f) {
		f.Add(s, "Source ")
	}
	f.Add("  a   b\t c  \r\n% error\nnext\n", "a b")
	f.Add("MBGP\u0085Table - 1 entries\n", "MBGP Table")
	f.Add("Origin-Subnet\xffx\n", "Origin-Subnet")
	f.Fuzz(func(t *testing.T, raw, prefix string) {
		checkCursor(t, raw, prefix)
	})
}
