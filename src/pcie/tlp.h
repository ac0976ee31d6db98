// Transaction Layer Packet accounting model.
//
// The paper measures "PCIe traffic" with Intel PCM, i.e. bytes that actually
// cross the link including protocol overhead. We therefore account, per TLP:
//   framing (STP/END) + sequence number + TLP header + payload + LCRC,
// plus an amortized DLLP share (ACK/FC) per TLP. Sizes follow the PCIe base
// spec for Gen1/2 (8b/10b) framing; the small Gen3+ framing difference is
// below the fidelity the figures need and is absorbed by the DLLP share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace bx::pcie {

enum class TlpType : std::uint8_t {
  kMemoryWrite,  // posted MWr (data downstream or upstream)
  kMemoryRead,   // non-posted MRd request (no payload)
  kCompletion,   // CplD carrying read data
};
inline constexpr std::size_t kTlpTypes = 3;

std::string_view tlp_type_name(TlpType type) noexcept;

/// Per-TLP overhead constants in bytes.
struct TlpOverhead {
  // 1B STP + 2B sequence + 4B LCRC + 1B END = 8B link framing.
  std::uint32_t framing = 8;
  // 4DW header (64-bit addressing) for memory requests.
  std::uint32_t mem_header = 16;
  // 3DW header for completions.
  std::uint32_t cpl_header = 12;
  // Amortized DLLP traffic (ACK/NAK + flow control) charged per TLP.
  std::uint32_t dllp_share = 8;
};

/// Wire bytes of one TLP of `type` carrying `payload_bytes` of data
/// (payload_bytes must be 0 for kMemoryRead).
std::uint32_t tlp_wire_bytes(TlpType type, std::uint32_t payload_bytes,
                             const TlpOverhead& overhead) noexcept;

}  // namespace bx::pcie
