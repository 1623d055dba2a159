package guest_test

import (
	"fmt"
	"time"

	"ava/internal/backoff"
	"ava/internal/guest"
)

// WithTimeout bounds one call with a now+d deadline; the same option given
// to New sets the library-wide default instead.
func ExampleWithTimeout() {
	opts := guest.ApplyCallOptions(guest.CallOptions{},
		guest.WithTimeout(50*time.Millisecond))
	fmt.Println(opts.Timeout)
	// Output: 50ms
}

// WithDeadline pins one call to an absolute deadline on the library's
// clock. It is per-call only: a library-wide absolute deadline would expire
// once and then fail every later call.
func ExampleWithDeadline() {
	at := time.Unix(1700000000, 0)
	opts := guest.ApplyCallOptions(guest.CallOptions{}, guest.WithDeadline(at))
	fmt.Println(opts.Deadline.Unix())
	// Output: 1700000000
}

// WithPriority raises one call into a more urgent router class (0 is the
// shared default class).
func ExampleWithPriority() {
	opts := guest.ApplyCallOptions(guest.CallOptions{}, guest.WithPriority(2))
	fmt.Println(opts.Priority)
	// Output: 2
}

// WithDeadlineSlack tunes how early a deadline forces the async batch to
// flush; a negative slack opts this call out of deadline-aware flushing.
func ExampleWithDeadlineSlack() {
	opts := guest.ApplyCallOptions(guest.CallOptions{},
		guest.WithDeadlineSlack(time.Millisecond))
	fmt.Println(opts.DeadlineSlack)
	// Output: 1ms
}

// WithOverloadRetry gives one call its own backoff schedule for
// StatusOverload denials, independent of the library-wide setting.
func ExampleWithOverloadRetry() {
	opts := guest.ApplyCallOptions(guest.CallOptions{},
		guest.WithOverloadRetry(backoff.Config{
			Base:   2 * time.Millisecond,
			Budget: 100 * time.Millisecond,
		}))
	fmt.Println(opts.Retry.Base, opts.Retry.Budget)
	// Output: 2ms 100ms
}

// Options compose left to right, and a CallOptions literal is itself a
// CallOption that resets the accumulated set — useful for pre-built
// profiles that individual calls then tweak.
func ExampleApplyCallOptions() {
	profile := guest.CallOptions{Timeout: time.Second, Priority: 1}
	opts := guest.ApplyCallOptions(guest.CallOptions{},
		profile,               // start from a shared profile
		guest.WithPriority(3), // then override one knob
	)
	fmt.Println(opts.Timeout, opts.Priority)
	// Output: 1s 3
}
