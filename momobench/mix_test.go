package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func TestGenMixDeterministic(t *testing.T) {
	a, b := genMix(7, 40), genMix(7, 40)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different request sequences")
	}
	if reflect.DeepEqual(a, genMix(8, 40)) {
		t.Fatal("different seeds gave the same request sequence")
	}
}

func TestGenMixShape(t *testing.T) {
	for _, perClient := range []int{1, 2, 7, 40, 480} {
		mix := genMix(3, perClient)
		if len(mix) != mixClients {
			t.Fatalf("%d clients, want %d", len(mix), mixClients)
		}
		seeds := map[int64]bool{-warmSeed: true}
		for c, seq := range mix {
			if len(seq) != perClient {
				t.Fatalf("client %d: %d requests, want %d", c, len(seq), perClient)
			}
			if !seq[0].Fresh {
				t.Fatalf("client %d starts with a repeat", c)
			}
			fresh, repeats, dvs := 0, 0, 0
			for i, e := range seq {
				if e.Fresh {
					fresh++
					if e.Req.DVS {
						dvs++
					}
					if seeds[e.Req.Seed] {
						t.Fatalf("client %d request %d reuses seed %d", c, i, e.Req.Seed)
					}
					seeds[e.Req.Seed] = true
					continue
				}
				repeats++
				if e.Repeat >= i || !seq[e.Repeat].Fresh {
					t.Fatalf("client %d request %d repeats %d, which is not an earlier fresh request", c, i, e.Repeat)
				}
				got, _ := json.Marshal(&e.Req)
				want, _ := json.Marshal(&seq[e.Repeat].Req)
				if !bytes.Equal(got, want) {
					t.Fatalf("client %d request %d is not byte-identical to the request it repeats", c, i)
				}
			}
			if repeats != perClient/2 {
				t.Fatalf("client %d: %d repeats (cache hits), want exactly %d", c, repeats, perClient/2)
			}
			if dvs != fresh/3 {
				t.Fatalf("client %d: %d of %d fresh requests set dvs, want %d", c, dvs, fresh, fresh/3)
			}
		}
	}
}
