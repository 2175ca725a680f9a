package runtime

import (
	"math"
	"math/rand"
	"time"
)

// The retransmit-timeout policy of OutReliable: a measured RTO per
// destination, exponential jittered backoff per window, and the patience
// that keeps an adapted RTO from giving up sooner than a configured one.

const (
	// backoffShift caps the exponential backoff: a window's retransmit
	// interval doubles per attempt up to 2^5 = 32 times the timeout.
	backoffShift = 5
	// jitterDiv spreads every backed-off interval by ±1/10 to decorrelate
	// retransmit bursts.
	jitterDiv = 10
	// rtoFloor is the shortest adapted timeout. The Go netpoller sleeps in
	// whole milliseconds, so a parked sender observes any shorter timer
	// after 1.1 ms anyway (measured: 50 µs to 1 ms timers all fire at p50
	// 1.10 ms, p99 1.4 ms); below that the timeout would only fire while
	// the process is busy, which is when acks are late, not lost.
	rtoFloor = time.Millisecond
)

// rttEstimator is the Jacobson/Karn retransmit-timeout estimator of one
// destination. It lives on the Host, so what one invocation learns the
// next one starts with. Guarded by Host.ackMu.
type rttEstimator struct {
	srtt, rttvar time.Duration
	sampled      bool
}

// observe feeds one round-trip sample. Karn's rule is the caller's:
// only windows that were transmitted exactly once are sampled.
func (e *rttEstimator) observe(rtt time.Duration) {
	if !e.sampled {
		e.srtt, e.rttvar, e.sampled = rtt, rtt/2, true
		return
	}
	dev := e.srtt - rtt
	if dev < 0 {
		dev = -dev
	}
	e.rttvar += (dev - e.rttvar) / 4
	e.srtt += (rtt - e.srtt) / 8
}

// rto is srtt + 4·rttvar clamped to [rtoFloor, timeout]; timeout itself
// until the first sample.
func (e *rttEstimator) rto(timeout time.Duration) time.Duration {
	if !e.sampled {
		return timeout
	}
	return min(max(e.srtt+4*e.rttvar, rtoFloor), timeout)
}

// retransmitInterval is how long a window waits for its ack once its
// deadline has expired `expired` times (0 = never): rto doubled per expiry
// up to the cap, jittered once backed off. Without ack-driven resends
// that is the number of transmissions before this one.
func retransmitInterval(rto time.Duration, expired int) time.Duration {
	iv := rto << min(expired, backoffShift)
	if j := int64(iv / jitterDiv); expired > 0 && j > 0 {
		iv += time.Duration(rand.Int63n(2*j+1) - j)
	}
	return iv
}

// patience is the least time a window is retried before it is reported
// unacknowledged: the schedule it would get with no round-trip samples,
// Σ_{i≤Retries} min(Timeout·2^i, 32·Timeout), at its least patient jitter
// draw. An adapted RTO runs through its Retries much sooner — in tens of
// milliseconds, less than one re-placement after a switch failure — so a
// window must have used its Retries *and* this long; in between it keeps
// retransmitting at the capped interval.
func (o ReliableOptions) patience() time.Duration {
	sum := o.Timeout
	for i := 1; i <= o.Retries; i++ {
		iv := o.Timeout << min(i, backoffShift)
		sum += iv - iv/jitterDiv
		if sum < 0 {
			return math.MaxInt64
		}
	}
	return sum
}
