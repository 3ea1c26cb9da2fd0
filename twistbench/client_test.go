package main

import "testing"

func TestClassifyEnvelope(t *testing.T) {
	for _, tc := range []struct {
		env  envelope
		want string
	}{
		{envelope{Cached: false}, classCold},
		{envelope{Cached: false, Node: "n1", Via: "n0"}, classCold}, // forwarded to a run
		{envelope{Cached: true}, classHit},
		{envelope{Cached: true, Node: "n2"}, classHit}, // fleet replica hit
		{envelope{Cached: true, Node: "n1", Via: "n0"}, classForwardHit},
	} {
		if got := classify(&tc.env); got != tc.want {
			t.Errorf("classify(%+v) = %s, want %s", tc.env, got, tc.want)
		}
	}
}
