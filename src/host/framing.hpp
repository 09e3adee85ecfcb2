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
/// MultiHost and the unit of retry for ReliableTransport.  The words stay
/// with their owner (the Program for split_groups(), the frame's flat word
/// list for FrameLayout); a group only names its range.
struct InstructionGroup {
  isa::Instruction inst;       ///< decoded copy of the instruction word
  std::size_t first_word = 0;  ///< index of the instruction word
  std::size_t word_count = 0;  ///< instruction word plus payload words
};

/// Split a program into instruction groups indexing program.words().
/// Throws SimError when the program ends inside a PUT/PUTV payload.
std::vector<InstructionGroup> split_groups(const isa::Program& program);

/// Register footprint of one instruction group — what the transport's
/// per-register write barrier reasons about.  For a retriable (read-class)
/// group the read sets name every register whose VALUE its responses
/// depend on: a retried GET returns the same bytes iff nothing wrote its
/// source register in between.  Error-predicted groups, SYNC and
/// out-of-range sub-reads have empty read sets — their responses are
/// functions of the instruction encoding and the configuration, not of
/// register state, so a retry is always byte-identical.  For a write group
/// the write sets name every register it can mutate (FU destinations are
/// taken conservatively: dst1, aux when the unit writes a second result,
/// and dst_flag always).  A group predicted to error never lands its
/// writes, so its sets are empty.  Data and flag registers are disjoint
/// namespaces.
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

/// What one instruction group will send back and touch, predicted
/// host-side.
struct ResponsePrediction {
  /// Responses the group produces (a GETV yields `aux`, most writes zero).
  std::size_t count = 0;
  /// True when re-submitting the group cannot change architectural state —
  /// reads, SYNC, and faulting instructions (whose writes never land).  In
  /// this ISA every response-producing group is retriable, because writes
  /// are response-less; the field still travels with the prediction so the
  /// transport's failure handling states its assumption explicitly.
  bool retriable = false;
  /// Registers the group reads (if retriable) or may write (see
  /// GroupEffects).
  GroupEffects effects;
};

/// The host's one mirror of the decoder's validation and the dispatcher's
/// routing: predicts exactly how many responses (data, flags, sync or
/// error) one instruction will generate on the given RTM configuration
/// with the given attached-unit table, and which registers it reads or
/// writes.
ResponsePrediction predict(const isa::Instruction& inst,
                           const rtm::RtmConfig& config,
                           const rtm::FunctionalUnitTable& table);

/// One member program's sub-range inside a frame.
struct FrameMember {
  std::size_t first_group = 0;  ///< index into FrameLayout::groups
  std::size_t group_count = 0;
  std::size_t response_count = 0;  ///< predicted responses, summed
};

/// A submission frame: member programs concatenated into one contiguous
/// wire transmission.  `words` holds every member's words in order, each
/// group indexes its range there, `predictions` runs parallel to
/// `groups`, and `members` records each program's group sub-range so the
/// transport can demultiplex responses back into per-program completions.
struct FrameLayout {
  std::vector<isa::Word> words;
  std::vector<InstructionGroup> groups;
  std::vector<ResponsePrediction> predictions;
  std::vector<FrameMember> members;

  /// Room for `member_count` members of `word_count` words and
  /// `group_count` groups in all (the sum of Program::instruction_count(),
  /// a hint: raw words can carry instructions too), so building the frame
  /// need not reallocate.
  void reserve(std::size_t word_count, std::size_t group_count,
               std::size_t member_count) {
    words.reserve(word_count);
    groups.reserve(group_count);
    predictions.reserve(group_count);
    members.reserve(member_count);
  }
};

/// Append one member program to `frame`: its words, its groups and their
/// predictions, and its sub-range.  The only way a frame is built —
/// split_frame() and ReliableTransport both go through it.  Throws
/// SimError when the program ends inside a PUT/PUTV payload (`frame` may
/// then hold a partial member).  An empty member is legal: it contributes
/// zero groups and completes immediately.
void append_member(FrameLayout& frame, const isa::Program& program,
                   const rtm::RtmConfig& config,
                   const rtm::FunctionalUnitTable& table);

/// A whole frame of member programs, built with append_member().  Throws
/// SimError on a null member.
FrameLayout split_frame(const std::vector<const isa::Program*>& programs,
                        const rtm::RtmConfig& config,
                        const rtm::FunctionalUnitTable& table);

}  // namespace fpgafu::host
