//go:build linux

package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks the calling goroutine until t. Go's timers wake an
// otherwise idle process only at millisecond granularity (the
// runtime's epoll wait takes whole milliseconds), which would make a
// paced sender run about half a millisecond late at the serve
// workloads' rates; nanosleep wakes within the kernel's timer slack,
// and the runtime hands the sleeping sender's processor to other
// goroutines meanwhile.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		// An interrupted sleep ends early; the loop sleeps the rest.
		_ = syscall.Nanosleep(&ts, nil)
	}
}
