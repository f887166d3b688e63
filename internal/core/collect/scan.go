package collect

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// The dump cursor: Preprocess's cleaning rules applied in place. A dump's
// significant lines are its "\n"-separated lines that hold at least one
// field and whose first field does not start with "%" (CLI error
// remnants); fields are what strings.Fields would split a line into,
// Unicode spaces included. The table parsers walk a raw dump with these
// functions instead of materializing Preprocess's []string, so a row is
// read and parsed in one pass with no per-row allocation.

// Lines is a cursor over a raw dump's significant lines. The zero value
// is an exhausted cursor; ScanLines starts one.
type Lines struct {
	rest string
}

// ScanLines returns a cursor over raw's significant lines.
func ScanLines(raw string) Lines { return Lines{rest: raw} }

// Next returns the next significant line — a substring of the raw dump,
// not yet normalized — and false once the dump is exhausted.
func (l *Lines) Next() (string, bool) {
	for l.rest != "" {
		line, rest, _ := strings.Cut(l.rest, "\n")
		l.rest = rest
		if first, _ := CutField(line); first != "" && first[0] != '%' {
			return line, true
		}
	}
	return "", false
}

// CutField returns the first field of s and the text after it. field is
// empty when s holds only spaces.
func CutField(s string) (field, rest string) {
	i := 0
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
		} else if space, size := runeSpace(s[i:]); space {
			i += size
		} else {
			break
		}
	}
	j := i
	for j < len(s) {
		if c := s[j]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			j++
		} else if space, size := runeSpace(s[j:]); !space {
			j += size
		} else {
			break
		}
	}
	return s[i:j], s[j:]
}

// Fields splits line as strings.Fields would, storing the first len(dst)
// fields in dst, and returns the total field count.
func Fields(line string, dst []string) int {
	n := 0
	for {
		f, rest := CutField(line)
		if f == "" {
			return n
		}
		if n < len(dst) {
			dst[n] = f
		}
		n++
		line = rest
	}
}

// HasFieldPrefix reports whether the normalized form of line — its
// fields joined by single spaces, as Preprocess returns it — starts with
// prefix, without building that form.
func HasFieldPrefix(line, prefix string) bool {
	for first := true; ; first = false {
		f, rest := CutField(line)
		if prefix == "" {
			return true
		}
		if f == "" {
			return false
		}
		if !first {
			if prefix[0] != ' ' {
				return false
			}
			prefix = prefix[1:]
		}
		if len(prefix) <= len(f) {
			return strings.HasPrefix(f, prefix)
		}
		if prefix[:len(f)] != f {
			return false
		}
		prefix = prefix[len(f):]
		line = rest
	}
}

// Normalize returns line's fields joined by single spaces, the form
// Preprocess returns. A line already in that form once trimmed is
// returned as a substring of itself; any other costs one allocation.
func Normalize(line string) string {
	f, rest := CutField(line)
	start := len(line) - len(rest) - len(f)
	end := start + len(f)
	var b strings.Builder // the copy, begun at the first irregular gap
	for {
		if f, rest = CutField(rest); f == "" {
			break
		}
		next := len(line) - len(rest) - len(f)
		if b.Len() == 0 && (next != end+1 || line[end] != ' ') {
			b.Grow(len(line) - start)
			b.WriteString(line[start:end])
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
			b.WriteString(f)
		}
		end = next + len(f)
	}
	if b.Len() == 0 {
		return line[start:end]
	}
	return b.String()
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// runeSpace reports whether the rune s starts with is a space, as
// strings.Fields judges it, and its width in bytes.
func runeSpace(s string) (space bool, size int) {
	r, size := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r), size
}
