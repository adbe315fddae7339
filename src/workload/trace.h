// Operation traces: a plain-text format for recording and replaying KV
// operation streams (one op per line: `put <hexkey> <size>`,
// `get <hexkey>`, `del <hexkey>`), so runs can be captured from generators
// or external tools and replayed against any KvStore and device
// configuration. A trace is one more op source for the runner
// (workload/runner.h): ReadTrace's OpList feeds either executor.
#pragma once

#include <iosfwd>
#include <string>

#include "common/status.h"
#include "workload/runner.h"

namespace bandslim::workload {

// Serialization. Keys are hex-encoded (they may contain arbitrary bytes).
// A trace records kind, key and PUT size; ReadTrace stamps a PUT's value
// with its op index over 0xA5, the bytes PutOps gives the same op. A
// malformed line is Corruption; a PUT size above kMaxValueSize is
// InvalidArgument, reported before any value is allocated.
void WriteTrace(const OpList& ops, std::ostream& out);
Result<OpList> ReadTrace(std::istream& in);

std::string HexEncode(const std::string& raw);
Result<std::string> HexDecode(const std::string& hex);

}  // namespace bandslim::workload
