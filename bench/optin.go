package main

import (
	"reflect"
	"sort"
)

// optIns records, by "pkg.Type.Field", whether each opt-in asked for
// through optIn was applied. It goes into every result so that two runs can be
// told apart when one of them ran on a tree where a field was gone.
var optIns = map[string]bool{}

// optIn sets the named field of the struct ptr points at to value, if
// the struct still has such a field, and reports whether it did.
//
// The fast paths this benchmark measures at paper scale sit behind
// fields the roadmap schedules for deletion once they are the only path
// (sched.Instance.ImplicitBounds, lp.Options.Presolve,
// serve.Config.Shards). Naming them only as strings keeps the benchmark
// compiling, unedited, on both sides of the change that deletes them.
func optIn(ptr any, field string, value any) bool {
	v := reflect.ValueOf(ptr)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		panic("optIn: need a pointer to a struct")
	}
	st := v.Elem()
	key := st.Type().String() + "." + field
	f := st.FieldByName(field)
	val := reflect.ValueOf(value)
	ok := f.IsValid() && f.CanSet() && val.Type().ConvertibleTo(f.Type())
	if ok {
		f.Set(val.Convert(f.Type()))
	}
	optIns[key] = ok
	return ok
}

// appliedOptIns lists the opt-ins in name order, each as
// "pkg.Type.Field=applied" or "pkg.Type.Field=absent".
func appliedOptIns() []string {
	var out []string
	for k, ok := range optIns {
		state := "absent"
		if ok {
			state = "applied"
		}
		out = append(out, k+"="+state)
	}
	sort.Strings(out)
	return out
}
