package metrics

import "reflect"

// Merge folds the snapshot src into *dst, the aggregation behind a
// router's fleet-wide view: integers add (counters and gauges alike),
// strings keep dst's value unless it is empty, histograms merge
// exactly, maps merge key by key, slices of structs with a
// label-tagged string field merge element by element on that label
// (new labels append), and interface values hold a pointer to a merged
// copy. Unlabeled slices and unexported fields are left alone. Merge
// never writes into src, so merging into a zero value makes a copy
// that later merges can extend.
func Merge[T any](dst *T, src T) {
	mergeValue(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src))
}

func mergeValue(dst, src reflect.Value) {
	for src.Kind() == reflect.Pointer || src.Kind() == reflect.Interface {
		if src.IsNil() {
			return
		}
		src = src.Elem()
	}
	if dst.Type() == histType {
		dst.Set(reflect.ValueOf(dst.Interface().(HistogramSnapshot).Merge(src.Interface().(HistogramSnapshot))))
		return
	}
	switch dst.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		dst.SetInt(dst.Int() + src.Int())
	case reflect.String:
		if dst.Len() == 0 {
			dst.SetString(src.String())
		}
	case reflect.Pointer:
		if dst.IsNil() {
			dst.Set(reflect.New(dst.Type().Elem()))
		}
		mergeValue(dst.Elem(), src)
	case reflect.Interface:
		if dst.IsNil() {
			cp := reflect.New(src.Type())
			mergeValue(cp.Elem(), src)
			dst.Set(cp)
		} else if d := dst.Elem(); d.Kind() == reflect.Pointer && d.Elem().Type() == src.Type() {
			mergeValue(d.Elem(), src)
		}
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			if dst.Type().Field(i).IsExported() {
				mergeValue(dst.Field(i), src.Field(i))
			}
		}
	case reflect.Map:
		if dst.IsNil() {
			dst.Set(reflect.MakeMapWithSize(dst.Type(), src.Len()))
		}
		for it := src.MapRange(); it.Next(); {
			cur := reflect.New(dst.Type().Elem()).Elem()
			if old := dst.MapIndex(it.Key()); old.IsValid() {
				cur.Set(old)
			}
			mergeValue(cur, it.Value())
			dst.SetMapIndex(it.Key(), cur)
		}
	case reflect.Slice:
		key := labelField(dst.Type().Elem())
		if key < 0 {
			return
		}
	next:
		for i := 0; i < src.Len(); i++ {
			s := src.Index(i)
			for j := 0; j < dst.Len(); j++ {
				if dst.Index(j).Field(key).String() == s.Field(key).String() {
					mergeValue(dst.Index(j), s)
					continue next
				}
			}
			dst.Set(reflect.Append(dst, reflect.Zero(dst.Type().Elem())))
			mergeValue(dst.Index(dst.Len()-1), s)
		}
	default:
		panic("metrics: Merge of unsupported type " + dst.Type().String())
	}
}

// labelField returns the index of a struct type's label-tagged string
// field, or -1.
func labelField(t reflect.Type) int {
	if t.Kind() != reflect.Struct {
		return -1
	}
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.Tag.Get("label") != "" && f.Type.Kind() == reflect.String {
			return i
		}
	}
	return -1
}
