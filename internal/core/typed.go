package core

// Typed accessors. Every shared item crosses the runtime as the Item
// interface, so untyped access ends in a type assertion at each use
// site (`c.UseValue(n).Item().(pack.Ints)`). These generic helpers keep
// the assertion in one place and pair each access with its handle, so
// call sites read as "borrow a T, then release the borrow". They add no
// copies and no allocations over the handle API they wrap.

// Use pins the named value and returns its contents as a T together
// with the borrow handle: release with ref.Release(). It panics (via
// the usual protocol-error path) if the value is not a T.
func Use[T Item](c *Ctx, name Name) (T, ValueRef) {
	ref := c.UseValue(name)
	return ref.Item().(T), ref
}

// Update obtains exclusive access to the accumulator and returns its
// data as a T for in-place mutation, together with the handle: publish
// with ref.Commit() (or ref.CommitToValue).
func Update[T Item](c *Ctx, name Name) (T, AccumRef) {
	ref := c.UpdateAccum(name)
	return ref.Item().(T), ref
}

// ReadChaotic returns a recent (possibly stale) snapshot of the
// accumulator as a T together with the handle: release with
// ref.Release(). The data is read-only.
func ReadChaotic[T Item](c *Ctx, name Name) (T, ChaoticRef) {
	ref := c.ReadChaotic(name)
	return ref.Item().(T), ref
}

// Create introduces a new single-assignment value, typed for symmetry
// with Use: the T a creator publishes is the T its consumers borrow.
func Create[T Item](c *Ctx, name Name, item T, uses int64) {
	c.CreateValue(name, item, uses)
}

// CreateInPlace begins creating a value and returns its storage as a T
// to fill in place, together with the handle: publish with
// ref.Publish(). Prefer Create unless the fill must happen after the
// storage is registered.
func CreateInPlace[T Item](c *Ctx, name Name, item T, uses int64) (T, CreateRef) {
	ref := c.BeginCreateValue(name, item, uses)
	return ref.Item().(T), ref
}

// Rename reuses the storage of the consumed value old for the new value
// (suspending until old is fully consumed) and returns it as a T to fill
// in place, together with the handle: publish with ref.Publish().
func Rename[T Item](c *Ctx, old, new Name, uses int64) (T, CreateRef) {
	ref := c.BeginRenameValue(old, new, uses)
	return ref.Item().(T), ref
}
