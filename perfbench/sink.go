package main

import (
	"bytes"
	"sync"
	"time"
)

// sink is a run's console: it keeps the text and the time of the first
// byte. Bytes lets a snapshot carry the output by value.
type sink struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	first   time.Time
	onFirst func()
}

func (s *sink) Write(p []byte) (int, error) {
	s.mu.Lock()
	var hook func()
	if s.first.IsZero() && len(p) > 0 {
		s.first = time.Now()
		hook = s.onFirst
	}
	s.buf.Write(p)
	s.mu.Unlock()
	if hook != nil {
		hook()
	}
	return len(p), nil
}

func (s *sink) Bytes() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]byte(nil), s.buf.Bytes()...)
}

func (s *sink) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

func (s *sink) firstAt() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.first
}
