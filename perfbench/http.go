package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http"
	"net/url"
	"strconv"
)

// recorder is a reusable in-memory http.ResponseWriter: requests go
// straight to the server's handler, so the numbers measure the program
// and not a socket stack.
type recorder struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: http.Header{}} }

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *recorder) reset() {
	clear(r.hdr)
	r.status = 0
	r.body.Reset()
}

// client sends requests to one handler from one goroutine.
type client struct {
	h   http.Handler
	rec *recorder
	gz  *gzip.Reader
	raw bytes.Buffer // decompressed body
}

func newClient(h http.Handler) *client { return &client{h: h, rec: newRecorder()} }

// do sends one request; the response stays in c.rec until the next call.
func (c *client) do(method, target string, body []byte, hdr map[string]string) {
	u, err := url.ParseRequestURI(target)
	if err != nil {
		panic(err) // targets are built by the harness
	}
	req := &http.Request{
		Method: method, URL: u, RequestURI: target, Host: "perfbench",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:     make(http.Header, len(hdr)),
		RemoteAddr: "192.0.2.1:1234",
		Body:       http.NoBody,
	}
	if body != nil {
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	c.rec.reset()
	c.h.ServeHTTP(c.rec, req)
}

// body returns the response body, decompressed when it was gzipped.
func (c *client) body() ([]byte, error) {
	if c.rec.hdr.Get("Content-Encoding") != "gzip" {
		return c.rec.body.Bytes(), nil
	}
	if c.gz == nil {
		gz, err := gzip.NewReader(bytes.NewReader(c.rec.body.Bytes()))
		if err != nil {
			return nil, err
		}
		c.gz = gz
	} else if err := c.gz.Reset(bytes.NewReader(c.rec.body.Bytes())); err != nil {
		return nil, err
	}
	c.raw.Reset()
	if _, err := c.raw.ReadFrom(c.gz); err != nil {
		return nil, err
	}
	return c.raw.Bytes(), nil
}

// refused reports a response that sheds load rather than answering.
func refused(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

func statusText(code int) string { return strconv.Itoa(code) + " " + http.StatusText(code) }
