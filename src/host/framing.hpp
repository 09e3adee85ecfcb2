#pragma once

#include <bitset>
#include <cstddef>
#include <vector>

#include "isa/instruction.hpp"
#include "isa/program.hpp"
#include "rtm/fu_table.hpp"
#include "rtm/rtm.hpp"

namespace fpgafu::host {

/// One instruction plus any inline payload words (a PUT travels with its
/// data word, a PUTV with its burst) — the unit of interleaving for
/// MultiHost and the unit of retry for ReliableTransport.
struct InstructionGroup {
  std::vector<isa::Word> words;  ///< instruction word, then payload words
  isa::Instruction inst;         ///< decoded copy of words[0]
};

/// Split a program into instruction groups.  Throws SimError when the
/// program ends inside a PUT/PUTV payload.
std::vector<InstructionGroup> split_groups(const isa::Program& program);

/// split_groups() appending to `out` (ReliableTransport builds a frame's
/// group list in place).  On a throw, `out` may hold a partial split.
void append_groups(const isa::Program& program,
                   std::vector<InstructionGroup>& out);

/// What one instruction group will send back, predicted host-side.
struct ResponsePrediction {
  /// Responses the group produces (a GETV yields `aux`, most writes zero).
  std::size_t count = 0;
  /// True when re-submitting the group cannot change architectural state —
  /// reads, SYNC, and faulting instructions (whose writes never land).  In
  /// this ISA every response-producing group is retriable, because writes
  /// are response-less; the field still travels with the prediction so the
  /// transport's failure handling states its assumption explicitly.
  bool retriable = false;
};

/// Host-side mirror of the decoder's validation and the dispatcher's
/// routing: predicts exactly how many responses (data, flags, sync or
/// error) one instruction will generate on the given RTM configuration
/// with the given attached-unit table.
ResponsePrediction predict(const isa::Instruction& inst,
                           const rtm::RtmConfig& config,
                           const rtm::FunctionalUnitTable& table);

/// Register footprint of one instruction group, host-side — what the
/// transport's per-register write barrier reasons about.  For a
/// retriable (read-class) group the read sets name every register whose
/// VALUE its responses depend on: a retried GET returns the same bytes iff
/// nothing wrote its source register in between.  Error-predicted groups,
/// SYNC and out-of-range sub-reads have empty read sets — their responses
/// are functions of the instruction encoding and the configuration, not of
/// register state, so a retry is always byte-identical.  For a write group
/// the write sets name every register it can mutate (FU destinations are
/// taken conservatively: dst1, aux when the unit writes a second result,
/// and dst_flag always).  Data and flag registers are disjoint namespaces.
struct GroupEffects {
  /// One bit per register number (isa::RegNum is 8-bit, so 256 covers any
  /// RtmConfig).
  using RegSet = std::bitset<256>;
  RegSet data_reads;
  RegSet data_writes;
  RegSet flag_reads;
  RegSet flag_writes;

  /// Would issuing this group as a *write* while `reader` is outstanding
  /// let a retry of `reader` observe a newer value?
  bool writes_conflict_with_reads_of(const GroupEffects& reader) const {
    return (data_writes & reader.data_reads).any() ||
           (flag_writes & reader.flag_reads).any();
  }
};

/// Compute the register footprint of one instruction (see GroupEffects).
/// Mirrors the same validation order as predict(): a group predicted to
/// error never lands its writes and its error responses are
/// value-independent, so it gets empty sets.
GroupEffects group_effects(const isa::Instruction& inst,
                           const rtm::RtmConfig& config,
                           const rtm::FunctionalUnitTable& table);

/// One member program's sub-range inside a coalesced frame.
struct FrameMember {
  std::size_t first_group = 0;  ///< index into FrameLayout::groups
  std::size_t group_count = 0;
  std::size_t response_count = 0;  ///< predicted responses, summed
};

/// Frame-level framing: several member programs concatenated into one
/// submission frame.  `groups` is the concatenation of each member's
/// split_groups() output (one contiguous wire transmission); predictions
/// and register effects are per group, and `members` records each
/// program's sub-range so the transport can demultiplex responses back
/// into per-program completions.
struct FrameLayout {
  std::vector<InstructionGroup> groups;
  std::vector<ResponsePrediction> predictions;
  std::vector<GroupEffects> effects;
  std::vector<FrameMember> members;
};

/// Split and predict a whole frame of member programs.  Throws SimError
/// when any member ends inside a PUT/PUTV payload.  An empty member is
/// legal: it contributes zero groups and completes immediately.
FrameLayout split_frame(const std::vector<const isa::Program*>& programs,
                        const rtm::RtmConfig& config,
                        const rtm::FunctionalUnitTable& table);

}  // namespace fpgafu::host
