package partition

import (
	"math"
	"testing"
	"time"
)

func TestTTLMillis(t *testing.T) {
	cases := []struct {
		ttl  time.Duration
		want uint32
	}{
		{0, 0},
		{-time.Second, 0},
		{time.Nanosecond, 1},
		{time.Millisecond, 1},
		{3 * time.Millisecond, 3},
		{3*time.Millisecond + 1, 4},
		{math.MaxUint32 * time.Millisecond, math.MaxUint32},
		{math.MaxUint32*time.Millisecond + 1, math.MaxUint32},
		{math.MaxInt64, math.MaxUint32},
	}
	for _, c := range cases {
		if got := TTLMillis(c.ttl); got != c.want {
			t.Errorf("TTLMillis(%v) = %d, want %d", c.ttl, got, c.want)
		}
	}
}
