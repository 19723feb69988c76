#include "mpisim/datatype.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ats::mpi {

std::size_t datatype_size(Datatype t) {
  switch (t) {
    case Datatype::kByte:
    case Datatype::kChar: return 1;
    case Datatype::kInt32: return 4;
    case Datatype::kInt64: return 8;
    case Datatype::kFloat: return 4;
    case Datatype::kDouble: return 8;
  }
  throw UsageError("datatype_size: unknown datatype");
}

const char* to_string(Datatype t) {
  switch (t) {
    case Datatype::kByte: return "byte";
    case Datatype::kChar: return "char";
    case Datatype::kInt32: return "int32";
    case Datatype::kInt64: return "int64";
    case Datatype::kFloat: return "float";
    case Datatype::kDouble: return "double";
  }
  return "?";
}

const char* to_string(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum: return "sum";
    case ReduceOp::kProd: return "prod";
    case ReduceOp::kMin: return "min";
    case ReduceOp::kMax: return "max";
    case ReduceOp::kLand: return "land";
    case ReduceOp::kLor: return "lor";
  }
  return "?";
}

namespace {

// The op is dispatched once per call, so each op is one plain loop that
// the compiler vectorises; every element folds as inout = op(inout, in).
template <typename T>
void combine_typed(ReduceOp op, const T* in, T* inout, int count) {
  const auto each = [&](auto f) {
    for (int i = 0; i < count; ++i) inout[i] = f(inout[i], in[i]);
  };
  switch (op) {
    case ReduceOp::kSum: return each([](T a, T b) -> T { return a + b; });
    case ReduceOp::kProd: return each([](T a, T b) -> T { return a * b; });
    case ReduceOp::kMin: return each([](T a, T b) { return std::min(a, b); });
    case ReduceOp::kMax: return each([](T a, T b) { return std::max(a, b); });
    case ReduceOp::kLand: return each([](T a, T b) -> T { return a && b; });
    case ReduceOp::kLor: return each([](T a, T b) -> T { return a || b; });
  }
}

}  // namespace

void reduce_combine(ReduceOp op, Datatype type, const void* in, void* inout,
                    int count) {
  switch (type) {
    case Datatype::kByte:
    case Datatype::kChar:
      combine_typed(op, static_cast<const std::int8_t*>(in),
                    static_cast<std::int8_t*>(inout), count);
      return;
    case Datatype::kInt32:
      combine_typed(op, static_cast<const std::int32_t*>(in),
                    static_cast<std::int32_t*>(inout), count);
      return;
    case Datatype::kInt64:
      combine_typed(op, static_cast<const std::int64_t*>(in),
                    static_cast<std::int64_t*>(inout), count);
      return;
    case Datatype::kFloat:
      combine_typed(op, static_cast<const float*>(in),
                    static_cast<float*>(inout), count);
      return;
    case Datatype::kDouble:
      combine_typed(op, static_cast<const double*>(in),
                    static_cast<double*>(inout), count);
      return;
  }
  throw UsageError("reduce_combine: unknown datatype");
}

}  // namespace ats::mpi
