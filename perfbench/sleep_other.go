//go:build !linux

package main

import "time"

// sleepUntil waits until t on the runtime timer, which may wake late;
// the generator reports that lateness. It reports whether it waited.
func sleepUntil(t time.Time) bool {
	d := time.Until(t)
	time.Sleep(d)
	return d > 0
}
