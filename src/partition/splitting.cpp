#include "partition/splitting.hpp"

#include <algorithm>
#include <cassert>

namespace rmts {

bool assign_or_split(ProcessorState& processor, ChainCursor& cursor,
                     Time split_granularity) {
  assert(!processor.full());
  assert(!cursor.exhausted());
  assert(split_granularity >= 1);

  const Subtask candidate = cursor.candidate();
  if (processor.fits(candidate)) {
    processor.add(candidate);
    cursor.consume_all();
    return true;
  }

  // A body may only be created where it gets the highest local priority
  // (Lemma 2; the paper's Lemma 14 extends it to pre-assigned processors).
  // The lemma is what makes the split remainder's release offset
  // deterministic -- bodies run unpreempted, so downstream pieces have
  // zero release jitter and plain sporadic RTA stays exact.  If a
  // pre-assigned task outranks the candidate here (possible only outside
  // the theorems' premises), skip splitting on this processor instead of
  // creating a jittery chain.
  const std::span<const Subtask> hosted = processor.subtasks();
  if (!hosted.empty() && hosted.front().priority < candidate.priority) {
    processor.mark_full();
    return false;
  }

  Time prefix = max_admissible_wcet(processor, candidate);
  assert(prefix < candidate.wcet);  // full fit was rejected above
  prefix -= prefix % split_granularity;
  if (prefix > 0) {
    Subtask body = candidate;
    body.wcet = prefix;
    body.kind = SubtaskKind::kBody;
    processor.add(body);

    // Measured response time of the body just placed.  The top-priority
    // guard above makes Lemma 2 structural, so this equals the body's
    // wcet; we still read it from RTA (and assert) rather than assume.
    const Time response = processor.response_time_of(0);
    assert(response == prefix);
    cursor.consume_body(prefix, response);
  }
  processor.mark_full();
  return false;
}

}  // namespace rmts
