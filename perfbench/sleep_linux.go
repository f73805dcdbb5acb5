package main

import (
	"syscall"
	"time"
)

// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK.
const prSetTimerSlack = 29

// sleepUntil blocks the calling thread in nanosleep(2) until t, with
// the thread's timer slack cut to 1 ns. The Go runtime's own timers
// wake up to a millisecond late when the process is idle, which would
// show up as generator lateness at moderate request rates. The slack is
// per thread and goroutines move between threads, so it is set before
// every sleep; the call is cheap next to the sleep.
//
// It reports whether it had to wait at all.
func sleepUntil(t time.Time) bool {
	for waited := false; ; waited = true {
		d := time.Until(t)
		if d <= 0 {
			return waited
		}
		syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(time.Until(t))
			return true
		}
	}
}
