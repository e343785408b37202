package partition

import (
	"math"
	"time"
)

// TTLMillis converts a time-to-live into the wire protocol's 32-bit
// millisecond field: ttl ≤ 0 is 0 ("never expires"), a positive ttl
// rounds up to whole milliseconds so "expires soon" never becomes
// "never expires", and anything beyond MaxUint32 ms (~49 days) clamps.
// The clamp is checked before the round-up, so durations near MaxInt64
// cannot overflow into an arbitrary finite TTL.
func TTLMillis(ttl time.Duration) uint32 {
	if ttl <= 0 {
		return 0
	}
	if ttl > math.MaxUint32*time.Millisecond {
		return math.MaxUint32
	}
	return uint32((ttl + time.Millisecond - 1) / time.Millisecond)
}
