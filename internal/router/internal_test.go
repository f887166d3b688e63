package router

import (
	"testing"
	"time"
)

func TestFmtDur(t *testing.T) {
	cases := map[time.Duration]string{
		0:                "0:00:00",
		61 * time.Second: "0:01:01",
		25 * time.Hour:   "25:00:00",
		-time.Second:     "0:00:00",
	}
	for d, want := range cases {
		if got := string(appendDur([]byte{}, d)); got != want {
			t.Errorf("appendDur(%v) = %q, want %q", d, got, want)
		}
	}
}
