package main

import (
	"sync"
	"sync/atomic"
	"time"

	"echoimage/internal/proto"
)

// outcome is one request's result.
type outcome struct {
	kind    proto.MsgType
	capture int       // authenticates: index into inputs.captures; else -1
	start   time.Time // due time in the open loop, send time otherwise
	done    time.Time
	code    string // "" for a good reply
	auth    proto.AuthResponse
}

func (o outcome) ms() float64 { return float64(o.done.Sub(o.start)) / float64(time.Millisecond) }

func call(c *client, kind proto.MsgType, f *frame, capture int, start time.Time) outcome {
	o := outcome{kind: kind, capture: capture, start: start}
	var into any
	if kind == proto.TypeAuthRequest {
		into = &o.auth
	}
	o.code = c.call(f, into)
	o.done = time.Now()
	return o
}

// closedLoop runs n requests over the clients, each client sending its
// next request as soon as its previous reply arrives. do(c, i) performs
// request i. It returns the outcomes in request order and the wall time.
func closedLoop(clients []*client, n int, do func(c *client, i int) []outcome) ([][]outcome, time.Duration) {
	outs := make([][]outcome, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				outs[i] = do(c, i)
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// openLoop sends the schedule's arrivals at their due times, independent
// of replies. An arrival that falls due while every connection is busy
// waits in the generator's queue, and that wait counts in its latency,
// which runs from the due time. lags holds, per arrival, how late the
// generator itself woke to queue it; a busy connection never delays that.
func openLoop(clients []*client, in *inputs, sched []slot) (outs []outcome, lags []float64) {
	type job struct {
		s   slot
		due time.Time
		// after and done chain the late users' enrollments, so they reach
		// the servers in schedule order whatever the connection timing.
		// Other jobs leave them nil.
		after, done chan struct{}
	}
	// Sized to the schedule, so queueing an arrival never blocks.
	work := make(chan job, len(sched))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				var o outcome
				switch j.s.kind {
				case proto.TypeAuthRequest:
					o = call(c, j.s.kind, in.captures[j.s.capture].frame, j.s.capture, j.due)
				case proto.TypeEnrollRequest:
					if j.s.late < 0 {
						o = call(c, j.s.kind, in.setup[j.s.capture].frame, -1, j.due)
						break
					}
					<-j.after
					o = call(c, j.s.kind, in.late[j.s.late].enroll[j.s.capture].frame, -1, j.due)
					close(j.done)
				default:
					o = call(c, j.s.kind, in.control[j.s.kind], -1, j.due)
				}
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	prev := make(chan struct{})
	close(prev)
	start := time.Now()
	for _, s := range sched {
		due := start.Add(s.due)
		time.Sleep(time.Until(due))
		lags = append(lags, float64(time.Since(due))/float64(time.Millisecond))
		j := job{s: s, due: due}
		if s.kind == proto.TypeEnrollRequest && s.late >= 0 {
			j.after, j.done = prev, make(chan struct{})
			prev = j.done
		}
		work <- j
	}
	close(work)
	wg.Wait()
	return outs, lags
}
