"""Core batch transforms: schema alignment/widening, typed parsing, schema
inference, transform chaining.

Reference parity (SURVEY.md §2.3):
- T2/T3 ``RecordBatchTransform`` / ``TransformChain``
  (``ml-data/ml-data-core/src/transform.rs:30-144``) → :func:`chain` over
  plain Arrow batch functions (Ray fuses consecutive ``map_batches``).
- T8 parsers/normalizers (``csv/parser.rs:100-283``): boolean synonyms
  (true/1/yes/y/t — ``csv/parser.rs:221-235``) → :func:`parse_bool_synonyms`.
- T9 schema inference (int64 → float64 → boolean → string fallback over the
  first N rows — ``ml-data/ml-data-readers/src/common.rs:204-239``) →
  :func:`infer_column_type` / :func:`infer_schema`.
- schema widening ``compatible_with`` lattice (``schema.rs:206-253``) →
  :func:`align_to_schema` via Arrow permissive promotion + casts.
"""

from __future__ import annotations

from typing import Callable

import pyarrow as pa
import pyarrow.compute as pc

BOOL_TRUE = {"true", "1", "yes", "y", "t"}
BOOL_FALSE = {"false", "0", "no", "n", "f"}


def _combined(col: pa.ChunkedArray | pa.Array) -> pa.Array:
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _offsets_with_validity(arr) -> pa.Array:
    """A (large_)list/map array's offsets with the parent's nulls marked, so
    ``ListArray.from_arrays`` round-trips null entries."""
    off = arr.offsets
    if not arr.null_count:
        return off
    import numpy as np
    offnp = off.to_numpy(zero_copy_only=False)
    valid = np.concatenate(
        (arr.is_valid().to_numpy(zero_copy_only=False), [True]))
    return pa.array(offnp, type=off.type, mask=~valid)


def _is_listish(t: pa.DataType) -> bool:
    return (pa.types.is_list(t) or pa.types.is_large_list(t)
            or pa.types.is_fixed_size_list(t))


def _align_column(col: pa.ChunkedArray | pa.Array,
                  target: pa.DataType) -> pa.ChunkedArray | pa.Array:
    """Recursively align one column to ``target`` — the reference's
    ``compatible_with`` widening lattice (``schema.rs:206-253``) extended to
    nested types: numeric/decimal widening via cast, struct evolution adds
    missing child fields as typed nulls (recursing into present ones);
    list / large_list / fixed_size_list / map / dictionary columns align via
    a single Arrow cast when the evolution is flat (element widening, index
    or offset width change, dictionary encode/decode) and via a recursive
    child rebuild when it is deep (e.g. a struct field ADDED inside a list
    element or map value, which Arrow's cast cannot express)."""
    if col.type.equals(target):
        return col
    if isinstance(target, pa.BaseExtensionType):
        # extension target (e.g. fixed_shape_tensor): align to the storage
        # type (covers plain list/fixed_size_list sources and element
        # widening), then rewrap — the reference's DataType::Tensor maps here
        # (``tensor.rs:20-38``, ``schema.rs:63``)
        arr = _combined(col)
        storage = arr.storage if isinstance(arr, pa.ExtensionArray) else arr
        aligned = _combined(_align_column(storage, target.storage_type))
        return pa.ExtensionArray.from_storage(target, aligned)
    if isinstance(col.type, pa.BaseExtensionType):
        return _align_column(_combined(col).storage, target)
    if pa.types.is_struct(target) and pa.types.is_struct(col.type):
        arr = _combined(col)
        src_names = {f.name for f in col.type}
        children = []
        for f in target:
            if f.name in src_names:
                children.append(_align_column(arr.field(f.name), f.type))
            else:
                children.append(pa.nulls(len(arr), f.type))
        mask = arr.is_null() if arr.null_count else None
        return pa.StructArray.from_arrays(
            [_combined(c) for c in children], fields=list(target), mask=mask)
    # numeric widening, decimal precision growth, list<T>→list<U>,
    # fixed_size_list widening/relaxation, map value widening,
    # dictionary↔plain and index/value widening are all single Arrow casts
    try:
        return col.cast(target)
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError, pa.ArrowTypeError):
        pass
    arr = _combined(col)
    if (pa.types.is_fixed_size_list(target)
            and pa.types.is_fixed_size_list(arr.type)
            and target.list_size == arr.type.list_size):
        # deep element evolution with the SAME fixed size: align the child
        # values in place and rebuild, carrying the validity buffer (a plain
        # list round-trip would give null entries length 0, which Arrow
        # refuses to cast back to fixed size)
        if arr.offset:
            import numpy as np
            arr = arr.take(np.arange(len(arr), dtype=np.int64))
        values = _combined(_align_column(arr.values, target.value_type))
        out = pa.Array.from_buffers(
            pa.list_(values.type, target.list_size), len(arr),
            [arr.buffers()[0]], children=[values])
        return out if out.type.equals(target) else out.cast(target)
    if _is_listish(target) and _is_listish(arr.type):
        # deep element evolution: normalize to plain list, align the child
        # values recursively, rebuild (restoring parent nulls through the
        # offsets), then cast to the exact target layout
        if pa.types.is_fixed_size_list(arr.type):
            arr = arr.cast(pa.list_(arr.type.value_type))
        values = _combined(_align_column(arr.values, target.value_type))
        out = pa.ListArray.from_arrays(
            _offsets_with_validity(arr).cast(pa.int32()), values)
        return out if out.type.equals(target) else out.cast(target)
    if pa.types.is_map(target) and pa.types.is_map(arr.type):
        keys = _combined(_align_column(arr.keys, target.key_type))
        items = _combined(_align_column(arr.items, target.item_type))
        out = pa.MapArray.from_arrays(
            _offsets_with_validity(arr).cast(pa.int32()), keys, items)
        return out if out.type.equals(target) else out.cast(target)
    if pa.types.is_dictionary(target):
        plain = (arr.cast(arr.type.value_type)
                 if pa.types.is_dictionary(arr.type) else arr)
        return _combined(
            _align_column(plain, target.value_type)).dictionary_encode() \
            .cast(target)
    if pa.types.is_dictionary(arr.type):
        return _align_column(arr.cast(arr.type.value_type), target)
    if pa.types.is_union(target) and pa.types.is_union(arr.type):
        # union evolution (reference DataType::Union, schema.rs:13-106):
        # same type-code layout, each child aligned recursively (Arrow has
        # no union cast kernel, so rebuild)
        src_codes = list(arr.type.type_codes)
        dst_codes = list(target.type_codes)
        if (arr.type.mode == target.mode and src_codes == dst_codes):
            children = [
                _combined(_align_column(arr.field(i), target.field(i).type))
                for i in range(target.num_fields)]
            names = [target.field(i).name for i in range(target.num_fields)]
            if target.mode == "dense":
                return pa.UnionArray.from_dense(
                    _combined(arr.type_codes), _combined(arr.offsets),
                    children, names, dst_codes)
            return pa.UnionArray.from_sparse(
                _combined(arr.type_codes), children, names, dst_codes)
    return arr.cast(target)  # re-raise the original error with full context


def align_to_schema(batch: pa.Table, schema: pa.Schema) -> pa.Table:
    """Schema evolution at the batch level: add missing columns as typed
    nulls and align widened/evolved types (numeric + decimal widening,
    struct field addition, list element widening, added nullability)."""
    if batch.schema.equals(schema, check_metadata=True):
        return batch
    cols = []
    for field in schema:
        if field.name in batch.column_names:
            col = _align_column(batch.column(field.name), field.type)
        else:
            col = pa.nulls(batch.num_rows, type=field.type)
        cols.append(col)
    return pa.Table.from_arrays(cols, schema=schema)


def chain(*fns: Callable[[pa.Table], pa.Table]) -> Callable[[pa.Table], pa.Table]:
    """Sequential composition of batch transforms (TransformChain analog).
    Order preservation / parallelizability semantics dissolve into Ray's
    execution options; a chain is just one fused ``map_batches`` body."""
    def composed(batch: pa.Table) -> pa.Table:
        for fn in fns:
            batch = fn(batch)
        return batch
    return composed


def parse_bool_synonyms(batch: pa.Table, col: str) -> pa.Table:
    """String → boolean with the reference's synonym set (case-insensitive
    true/1/yes/y/t // false/0/no/n/f; anything else → null)."""
    lower = pc.utf8_lower(pc.utf8_trim_whitespace(batch.column(col)))
    is_true = pc.is_in(lower, value_set=pa.array(sorted(BOOL_TRUE)))
    is_false = pc.is_in(lower, value_set=pa.array(sorted(BOOL_FALSE)))
    out = pc.if_else(is_true, True, pc.if_else(is_false, False,
                                               pa.scalar(None, pa.bool_())))
    return batch.set_column(batch.column_names.index(col), col, out)


# ---------------------------------------------------------------------------
# schema inference (reference rules: int64 -> float64 -> bool -> string)
# ---------------------------------------------------------------------------

def infer_column_type(values: list[str | None]) -> pa.DataType:
    """Infer one column's type from sample strings using the reference's
    fallback chain: all-int64 → int64; all-float → float64; all-bool-synonym
    → bool; else string. Empty/None values are ignored."""
    vals = [v for v in values if v is not None and v.strip() != ""]
    if not vals:
        return pa.string()

    def is_int(s: str) -> bool:
        try:
            int(s)
            return True
        except ValueError:
            return False

    def is_float(s: str) -> bool:
        try:
            float(s)
            return True
        except ValueError:
            return False

    if all(is_int(v) for v in vals):
        return pa.int64()
    if all(is_float(v) for v in vals):
        return pa.float64()
    if all(v.strip().lower() in BOOL_TRUE | BOOL_FALSE for v in vals):
        return pa.bool_()
    return pa.string()


def infer_schema(rows: list[list[str | None]], names: list[str],
                 max_rows: int = 1000) -> pa.Schema:
    """Infer a schema from the first ``max_rows`` string records (reference
    default ``schema_inference_rows = 1000``, ``common.rs:28,56``)."""
    sample = rows[:max_rows]
    fields = []
    for i, name in enumerate(names):
        col = [r[i] if i < len(r) else None for r in sample]
        fields.append(pa.field(name, infer_column_type(col)))
    return pa.schema(fields)
