/**
 * @file
 * Test helper for the strict bool decoding of exec/proc frames and
 * payloads: serialize a message with one bool member written as the
 * byte 2, which no conforming writer ever produces.
 */

#ifndef RIGOR_TESTS_EXEC_BOOL_BYTE_HH
#define RIGOR_TESTS_EXEC_BOOL_BYTE_HH

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "exec/proc/protocol.hh"

namespace rigor::test
{

/**
 * The serialized bytes of @p message after @p set_true sets one of
 * its bool members, with that member's byte overwritten by 2. The
 * member's byte is the only one that differs from the serialization
 * before @p set_true ran.
 */
template <typename Message, typename SetTrue>
std::vector<std::byte>
withBoolByteTwo(Message message, SetTrue set_true)
{
    exec::proc::Writer before;
    message.serialize(before);
    set_true(message);
    exec::proc::Writer after;
    message.serialize(after);

    std::vector<std::byte> bytes = after.bytes();
    EXPECT_EQ(bytes.size(), before.bytes().size());
    std::size_t changed = 0;
    std::size_t at = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        if (bytes[i] != before.bytes()[i]) {
            ++changed;
            at = i;
        }
    }
    EXPECT_EQ(changed, 1u) << "set_true must flip exactly one bool";
    bytes[at] = std::byte{2};
    return bytes;
}

} // namespace rigor::test

#endif // RIGOR_TESTS_EXEC_BOOL_BYTE_HH
