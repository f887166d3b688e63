package addr

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// The reference parsers: Parse and ParsePrefix as they were before the
// split-free scan, built on strings.Split. FuzzParseMatchesReference holds
// the live parsers to them — same value, same error text — on arbitrary
// input, since parse errors surface verbatim in gap reasons.

func refParse(s string) (IP, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("addr: %q is not a dotted-quad IPv4 address", s)
	}
	var ip uint32
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 || (len(p) > 1 && p[0] == '0') {
			return 0, fmt.Errorf("addr: invalid octet %q in %q", p, s)
		}
		ip = ip<<8 | uint32(n)
	}
	return IP(ip), nil
}

func refParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("addr: %q is not CIDR notation", s)
	}
	ip, err := refParse(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("addr: invalid prefix length in %q", s)
	}
	if ip&maskFor(bits) != ip {
		return Prefix{}, fmt.Errorf("addr: %q has host bits set", s)
	}
	return Prefix{Addr: ip, Len: bits}, nil
}

func FuzzParseMatchesReference(f *testing.F) {
	for _, s := range []string{
		"192.168.1.7", "0.0.0.0", "255.255.255.255", "1.2.3", "1.2.3.4.5",
		"01.2.3.4", "+1.2.3.4", "-0.1.2.3", "1..2.3", "", ".", "...",
		"256.1.1.1", "1.2.3.4 ", "1.2.3.\xff", "128.111.0.0/16", "10.0.0.0/8",
		"10.0.0.1/8", "1.2.3.4/33", "1.2.3.4/-1", "1.2.3.4/", "/8", "1.2.3.4/+8",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ip, err := Parse(s)
		wantIP, wantErr := refParse(s)
		if ip != wantIP || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("Parse(%q) = %v, %v; reference %v, %v", s, ip, err, wantIP, wantErr)
		}
		p, err := ParsePrefix(s)
		wantP, wantErr := refParsePrefix(s)
		if p != wantP || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("ParsePrefix(%q) = %v, %v; reference %v, %v", s, p, err, wantP, wantErr)
		}
	})
}

// TestAppendTo pins the append renderers, which String and the router
// dumps share, to the dotted-quad and CIDR text.
func TestAppendTo(t *testing.T) {
	for _, s := range []string{"0.0.0.0/0", "10.0.0.0/8", "128.111.41.0/24", "255.255.255.255/32"} {
		p := MustParsePrefix(s)
		if got := string(p.AppendTo([]byte("x"))); got != "x"+s {
			t.Errorf("Prefix.AppendTo = %q, want %q", got, "x"+s)
		}
		ip, _, _ := strings.Cut(s, "/")
		if got := string(p.Addr.AppendTo(nil)); got != ip {
			t.Errorf("IP.AppendTo = %q, want %q", got, ip)
		}
	}
}
