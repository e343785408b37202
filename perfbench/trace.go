package main

import (
	"bufio"
	"fmt"
	"os"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanWindow  spanKind = iota // one wake-up of a connection's open loop
	spanGen                     // workload.Generator.Next for the window
	spanIssue                   // client.Pipeline Get/Set of one request
	spanWait                    // client.Pipeline.Wait settling the window
	spanTextGet                 // mcclient.GetMulti for a run of GETs
	spanTextSet                 // mcclient.Set of one request
)

var spanNames = [...]string{"bench.window", "workload.gen", "client.issue", "client.wait", "mcclient.get_multi", "mcclient.set"}

// span is one timed call into a layer. Spans of one request share req;
// parent indexes the enclosing span of the same lane (-1 for a root).
type span struct {
	kind       spanKind
	parent     int32
	req        int64
	start, end int64
}

// maxSpansPerLane caps the memory (and the span dump) one traced
// connection may fill. Once a lane is nearly full, later windows go
// unrecorded as a whole, so every recorded window is complete.
const maxSpansPerLane = 1 << 18

// lane is one goroutine's span buffer. A nil *lane records nothing, so
// untraced runs pay only a nil check at each boundary.
type lane struct {
	spans []span
	ops   int64 // requests in recorded windows
}

// window opens the span of a window of n requests, or returns nil when the
// lane has no room left for a whole window; the caller records the
// window's child spans on the returned lane.
func (l *lane) window(n int, req int64) (*lane, int32) {
	if l == nil || len(l.spans)+2*n+8 > maxSpansPerLane {
		return nil, -1
	}
	l.ops += int64(n)
	return l, l.begin(spanWindow, -1, req)
}

// tracer owns the lanes of one traced run and writes them out at the end.
type tracer struct {
	lanes []*lane
}

func newTracer(n int) *tracer {
	t := &tracer{}
	for i := 0; i < n; i++ {
		t.lanes = append(t.lanes, &lane{spans: make([]span, 0, 1<<16)})
	}
	return t
}

// lane returns lane i, or nil when t is nil (untraced).
func (t *tracer) lane(i int) *lane {
	if t == nil {
		return nil
	}
	return t.lanes[i]
}

// clock reads the clock only when tracing.
func (l *lane) clock() int64 {
	if l == nil {
		return 0
	}
	return now()
}

// span records a finished span [start, now] and returns its index.
func (l *lane) span(kind spanKind, parent int32, req, start int64) int32 {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{kind: kind, parent: parent, req: req, start: start, end: now()})
	return int32(len(l.spans) - 1)
}

// begin opens a span that end closes.
func (l *lane) begin(kind spanKind, parent int32, req int64) int32 {
	if l == nil {
		return -1
	}
	id := l.span(kind, parent, req, now())
	l.spans[id].end = 0
	return id
}

func (l *lane) end(id int32) {
	if l != nil && id >= 0 {
		l.spans[id].end = now()
	}
}

// ops counts the requests of all recorded windows.
func (t *tracer) ops() int64 {
	var n int64
	for _, l := range t.lanes {
		n += l.ops
	}
	return n
}

// stats sums the durations and counts of one span kind over all lanes.
func (t *tracer) stats(kind spanKind) (total int64, n int64) {
	for _, l := range t.lanes {
		for _, s := range l.spans {
			if s.kind == kind && s.end > 0 {
				total += s.end - s.start
				n++
			}
		}
	}
	return total, n
}

// write dumps every span as tab-separated text: lane, index, name, parent,
// request id, start and end in nanoseconds since process start.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "lane\tid\tname\tparent\treq\tstart_ns\tend_ns")
	for li, l := range t.lanes {
		for i, s := range l.spans {
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\n", li, i, spanNames[s.kind], s.parent, s.req, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
