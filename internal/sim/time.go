// Package sim implements a deterministic discrete-event simulation
// engine: a virtual clock, a time-ordered event queue with stable
// tie-breaking, a seeded random-number generator, and service-queue
// resources with non-preemptive priorities.
//
// The engine is single-threaded by design: given the same seed and the
// same sequence of Schedule calls, a simulation produces bit-identical
// results on every run, which is essential for reproducing the paper's
// experiments.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, measured in integer nanoseconds
// since the start of the simulation. Using integers (rather than
// float64 seconds) keeps event ordering exact and platform-independent.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is kept as a
// separate type from Time so that the compiler catches point/span
// confusion (Time+Duration is meaningful, Time+Time is not).
type Duration int64

// Convenient duration units, mirroring the paper's parameter units
// (microseconds for startups, milliseconds for disk seeks).
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time using Go duration notation.
func (t Time) String() string { return time.Duration(t).String() }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Milliseconds returns the duration as a floating-point number of
// milliseconds.
func (d Duration) Milliseconds() float64 { return float64(d) / float64(Millisecond) }

// Microseconds returns the duration as a floating-point number of
// microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

// String formats the duration using Go duration notation.
func (d Duration) String() string { return time.Duration(d).String() }

// Microseconds constructs a Duration from a (possibly fractional)
// count of microseconds, the unit used by the paper's startup
// parameters in Table 1.
func Microseconds(us float64) Duration { return Duration(us * float64(Microsecond)) }

// Milliseconds constructs a Duration from a (possibly fractional)
// count of milliseconds, the unit used by the paper's disk seek
// parameters in Table 1.
func Milliseconds(ms float64) Duration { return Duration(ms * float64(Millisecond)) }

// Seconds constructs a Duration from a count of seconds.
func Seconds(s float64) Duration { return Duration(s * float64(Second)) }

// TransferTime returns the time needed to move size bytes at the given
// bandwidth in MB/s (decimal megabytes, as in the paper's Table 1).
// A non-positive bandwidth is a configuration error and panics.
func TransferTime(sizeBytes int64, mbPerSec float64) Duration {
	if mbPerSec <= 0 {
		panic(fmt.Sprintf("sim: non-positive bandwidth %v MB/s", mbPerSec))
	}
	bytesPerSec := mbPerSec * 1e6
	return Duration(float64(sizeBytes) / bytesPerSec * float64(Second))
}
