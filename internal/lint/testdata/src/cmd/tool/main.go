// Command tool opts into goroutines the same way every package does now:
// a file-scoped //dophy:concurrency-boundary pragma (cmd/ is outside
// determflow's sink scope, so only its wall-clock use comes for free).
//
//dophy:concurrency-boundary -- CLI-side fan-out; the goroutine is joined before exit
package main

import (
	"fmt"
	"time"
)

func main() {
	start := time.Now()
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
	fmt.Println(time.Since(start))
}
