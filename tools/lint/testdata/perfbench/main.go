// Command perfbench is a nested module: its code is read only as a
// caller, so its own goroutine and unused helper are not findings.
package main

import "lintdata/internal/a"

func main() { go a.Perf() }

func unused() {}
