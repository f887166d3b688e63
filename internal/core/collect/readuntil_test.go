package collect

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"time"
)

// trickleConn serves its data at most chunk bytes per Read, then io.EOF.
type trickleConn struct {
	data  string
	chunk int
}

func (c *trickleConn) Read(p []byte) (int, error) {
	if c.data == "" {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), c.chunk)], c.data)
	c.data = c.data[n:]
	return n, nil
}

func (c *trickleConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *trickleConn) Close() error                { return nil }

// TestReadUntilSplitPrompt streams a large dump whose prompt arrives
// split across every possible Read boundary, and near-miss prompt
// fragments before it. readUntil must stop at the prompt's first
// occurrence, returning exactly the bytes read through the Read that
// completed it, and find the second occurrence on the next call.
func TestReadUntilSplitPrompt(t *testing.T) {
	const prompt = "fixw> "
	var sb strings.Builder
	for i := 0; sb.Len() < 256<<10; i++ {
		fmt.Fprintf(&sb, "10.%d.%d.0/24        fixw>%d fixw  fixw>>  %d\n", i/256%256, i%256, i, i)
	}
	dump := sb.String()
	first := dump + prompt
	data := first + "exit\n" + prompt
	for _, chunk := range []int{1, 2, 3, 5, 6, 7, 4096} {
		s := &Session{conn: &trickleConn{data: data, chunk: chunk}, prompt: prompt, timeout: time.Minute, now: time.Now}
		got, err := s.readUntil(prompt)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		// The Read that completes the prompt may carry bytes past it.
		end := min(len(data), (len(first)+chunk-1)/chunk*chunk)
		if got != data[:end] {
			t.Fatalf("chunk %d: read %d bytes ending %q, want %d ending %q",
				chunk, len(got), got[max(0, len(got)-20):], end, data[end-20:end])
		}
		if chunk == 1 {
			rest, err := s.readUntil(prompt)
			if err != nil || rest != "exit\n"+prompt {
				t.Fatalf("second prompt: %q, %v", rest, err)
			}
		}
	}
}
