// Command tool is the production caller of package a.
package main

import (
	"fmt"

	"lintdata/internal/a"
	"lintdata/internal/portal"
)

func main() {
	a.Run()
	a.Sort(nil)
	fmt.Println(a.T{}, a.Count(), a.Defaults(), a.Thing{}.Stats(), a.PoolMetrics{}, a.RunConfig{Depth: 1}, portal.Handle)
}
