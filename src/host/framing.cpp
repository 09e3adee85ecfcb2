#include "host/framing.hpp"

#include "isa/rtm_ops.hpp"
#include "util/error.hpp"

namespace fpgafu::host {

namespace {

/// An error response is value-independent and the write never lands.
constexpr ResponsePrediction kOneError{1, true, {}};

/// Cut words[begin..] into instruction groups appended to `out`.
void cut_groups(const std::vector<isa::Word>& words, std::size_t begin,
                std::vector<InstructionGroup>& out) {
  for (std::size_t i = begin; i < words.size();) {
    InstructionGroup group;
    group.inst = isa::Instruction::decode(words[i]);
    group.first_word = i;
    std::size_t payload_words = 0;
    if (group.inst.function == isa::fc::kRtm) {
      const auto op = static_cast<isa::RtmOp>(group.inst.variety);
      if (op == isa::RtmOp::kPut) {
        payload_words = 1;
      } else if (op == isa::RtmOp::kPutVec) {
        payload_words = group.inst.aux;
      }
    }
    check(i + payload_words < words.size(),
          "program ends inside a PUT/PUTV payload");
    group.word_count = 1 + payload_words;
    i += group.word_count;
    out.push_back(group);
  }
}

}  // namespace

std::vector<InstructionGroup> split_groups(const isa::Program& program) {
  std::vector<InstructionGroup> groups;
  cut_groups(program.words(), 0, groups);
  return groups;
}

ResponsePrediction predict(const isa::Instruction& inst,
                           const rtm::RtmConfig& config,
                           const rtm::FunctionalUnitTable& table) {
  auto data_ok = [&](unsigned r) { return r < config.data_regs; };
  auto flag_ok = [&](unsigned r) { return r < config.flag_regs; };
  ResponsePrediction p;  // no responses, not retriable, empty footprint
  GroupEffects& e = p.effects;

  if (inst.function != isa::fc::kRtm) {
    // Functional-unit instruction: decoder validation first, then the
    // dispatcher's routing checks, in the same order.  A dispatched op
    // writes dst1, the second destination when the unit produces one, and
    // dst_flag (conservatively: every dispatched FU op retires a flag
    // word).  Its reads do not matter to the barrier — FU groups are
    // never retried.
    if (!data_ok(inst.dst1) || !data_ok(inst.src1) || !data_ok(inst.src2) ||
        !flag_ok(inst.dst_flag) || !flag_ok(inst.src_flag)) {
      return kOneError;
    }
    fu::FunctionalUnit* unit = table.find(inst.function);
    if (unit == nullptr) {
      return kOneError;  // unattached function code
    }
    const bool second = unit->writes_second(inst.variety);
    if (second && (!data_ok(inst.aux) || inst.aux == inst.dst1)) {
      return kOneError;  // dual-output destination fault
    }
    e.data_writes.set(inst.dst1);
    if (second) {
      e.data_writes.set(inst.aux);
    }
    e.flag_writes.set(inst.dst_flag);
    return p;
  }

  using isa::RtmOp;
  switch (static_cast<RtmOp>(inst.variety)) {
    case RtmOp::kNop:
      p.retriable = true;
      return p;
    case RtmOp::kSync:
      return {1, true, {}};  // the echo is value-independent
    case RtmOp::kCopy:
      if (!data_ok(inst.dst1) || !data_ok(inst.src1)) {
        return kOneError;
      }
      e.data_writes.set(inst.dst1);
      return p;
    case RtmOp::kCopyFlags:
      if (!flag_ok(inst.dst_flag) || !flag_ok(inst.src_flag)) {
        return kOneError;
      }
      e.flag_writes.set(inst.dst_flag);
      return p;
    case RtmOp::kPut:
    case RtmOp::kPutImm:
      if (!data_ok(inst.dst1)) {
        return kOneError;
      }
      e.data_writes.set(inst.dst1);
      return p;
    case RtmOp::kPutVec:
      // A zero-length burst does nothing, even with an invalid base: the
      // decoder returns before validation can report.
      if (inst.aux == 0) {
        p.retriable = true;
        return p;
      }
      if (!data_ok(inst.dst1 + inst.aux - 1u)) {
        return kOneError;  // an oversized burst is discarded whole
      }
      for (unsigned i = 0; i < inst.aux; ++i) {
        e.data_writes.set(inst.dst1 + i);
      }
      return p;
    case RtmOp::kGetVec:
      // Every sub-read responds, in-range as data and out-of-range as a
      // value-independent error, so the count is always aux.
      p = {inst.aux, true, {}};
      for (unsigned i = 0; i < inst.aux && data_ok(inst.src1 + i); ++i) {
        e.data_reads.set(inst.src1 + i);
      }
      return p;
    case RtmOp::kPutFlags:
      if (!flag_ok(inst.dst_flag)) {
        return kOneError;
      }
      e.flag_writes.set(inst.dst_flag);
      return p;
    case RtmOp::kGet:
      p = {1, true, {}};  // data or error, always exactly one
      if (data_ok(inst.src1)) {
        e.data_reads.set(inst.src1);
      }
      return p;
    case RtmOp::kGetFlags:
      p = {1, true, {}};
      if (flag_ok(inst.src_flag)) {
        e.flag_reads.set(inst.src_flag);
      }
      return p;
  }
  return kOneError;  // unknown RTM variety -> kUnknownFunction response
}

void append_member(FrameLayout& frame, const isa::Program& program,
                   const rtm::RtmConfig& config,
                   const rtm::FunctionalUnitTable& table) {
  FrameMember member;
  member.first_group = frame.groups.size();
  const std::size_t first_word = frame.words.size();
  frame.words.insert(frame.words.end(), program.words().begin(),
                     program.words().end());
  cut_groups(frame.words, first_word, frame.groups);
  member.group_count = frame.groups.size() - member.first_group;
  for (std::size_t i = member.first_group; i < frame.groups.size(); ++i) {
    frame.predictions.push_back(predict(frame.groups[i].inst, config, table));
    member.response_count += frame.predictions.back().count;
  }
  frame.members.push_back(member);
}

FrameLayout split_frame(const std::vector<const isa::Program*>& programs,
                        const rtm::RtmConfig& config,
                        const rtm::FunctionalUnitTable& table) {
  std::size_t words = 0;
  std::size_t groups = 0;
  for (const isa::Program* program : programs) {
    check(program != nullptr, "split_frame: null member program");
    words += program->words().size();
    groups += program->instruction_count();
  }
  FrameLayout frame;
  frame.reserve(words, groups, programs.size());
  for (const isa::Program* program : programs) {
    append_member(frame, *program, config, table);
  }
  return frame;
}

}  // namespace fpgafu::host
