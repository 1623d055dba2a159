package main

import (
	"testing"

	"ava/internal/marshal"
	"ava/internal/server"
)

// Whatever API avad serves, a guardian on another host can checkpoint it and
// restore into it: the registry buildRegistry returns answers the snapshot
// and restore control calls. (The object-state adapter used to be added here
// by hand, for opencl only; an `avad -api mvnc` refused every FuncSnapshot.)
func TestBuildRegistryServesSnapshotAndRestore(t *testing.T) {
	for _, api := range []string{"opencl", "mvnc", "qat"} {
		reg, err := buildRegistry(api, 64, 2, 1, true)
		if err != nil {
			t.Fatalf("%s: %v", api, err)
		}
		srv := server.New(reg)
		ctx := srv.Context(1, "vm")
		for _, call := range []marshal.Call{
			{Func: marshal.FuncSnapshot, Args: []marshal.Value{marshal.Int(1)}},
			{Func: marshal.FuncSnapshot, Args: []marshal.Value{marshal.Int(0)}},
			{Func: marshal.FuncRestore, Args: []marshal.Value{marshal.HandleVal(1), marshal.BytesVal(nil)}},
		} {
			call.Seq = 1
			if rep := srv.Execute(ctx, &call); rep.Status != marshal.StatusOK {
				t.Errorf("%s: control call %#x: status %v: %s", api, call.Func, rep.Status, rep.Err)
			}
		}
	}
	if _, err := buildRegistry("cuda", 64, 2, 1, false); err == nil {
		t.Error("unknown API accepted")
	}
}
