#include "workload/trace.h"

#include <charconv>
#include <istream>
#include <ostream>
#include <sstream>

namespace bandslim::workload {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";
}  // namespace

std::string HexEncode(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() * 2);
  for (unsigned char c : raw) {
    out.push_back(kHexDigits[c >> 4]);
    out.push_back(kHexDigits[c & 0xF]);
  }
  return out;
}

Result<std::string> HexDecode(const std::string& hex) {
  if (hex.size() % 2 != 0) return Status::InvalidArgument("odd hex length");
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return Status::InvalidArgument("bad hex digit");
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

void WriteTrace(const OpList& ops, std::ostream& out) {
  for (const Op& op : ops) {
    switch (op.kind) {
      case OpKind::kPut:
        out << "put " << HexEncode(op.key) << ' ' << op.value_size << '\n';
        break;
      case OpKind::kGet:
        out << "get " << HexEncode(op.key) << '\n';
        break;
      case OpKind::kDelete:
        out << "del " << HexEncode(op.key) << '\n';
        break;
    }
  }
}

Result<OpList> ReadTrace(std::istream& in) {
  OpList ops;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const std::string where = ", line " + std::to_string(lineno);
    std::istringstream ls(line);
    std::string kind;
    std::string hexkey;
    ls >> kind >> hexkey;
    if (ls.fail()) return Status::Corruption("trace line" + where);
    auto key = HexDecode(hexkey);
    if (!key.ok()) return key.status();
    Op op;
    op.key = std::move(key).value();
    op.stamp = ops.size();
    if (kind == "put") {
      // Decimal digits only: no sign, no suffix, no overflow, not zero.
      std::string size;
      ls >> size;
      const char* end = size.data() + size.size();
      const auto parsed = std::from_chars(size.data(), end, op.value_size);
      if (parsed.ec != std::errc() || parsed.ptr != end || op.value_size == 0) {
        return Status::Corruption("bad put size '" + size + "'" + where);
      }
      if (op.value_size > kMaxValueSize) {
        return Status::InvalidArgument("put size " + size +
                                       " exceeds kMaxValueSize" + where);
      }
    } else if (kind == "get") {
      op.kind = OpKind::kGet;
    } else if (kind == "del") {
      op.kind = OpKind::kDelete;
    } else {
      return Status::Corruption("unknown op '" + kind + "'" + where);
    }
    std::string extra;
    if (ls >> extra) {
      return Status::Corruption("trailing token '" + extra + "'" + where);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

}  // namespace bandslim::workload
