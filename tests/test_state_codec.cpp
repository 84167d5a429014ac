// The v4 shard-state codec against a fixed past and against hostile bytes.
//
// Golden: the exact bytes of a state that fills every section, the JSON
// dump and size accounting derived from it, digests of the merged and
// adaptive states a small sweep writes, and the bytes and packing ratio
// of a 1024-cell state. The values were captured from a known-good build
// and are never edited: a change to any field walk, primitive coding or
// section order moves at least one of them.
//
// Canonical: decode accepts only the payload bytes encode writes, so
// encode(decode(bytes)) == bytes — crafted near-miss encodings (overlong
// varints, a flag byte of 2, a 33-bit thread count, split runs) throw.
//
// Mutation replay: seeded bit flips, byte overwrites, truncations,
// insertions and deletions of the golden payload, re-signed so they pass
// the checksum. Each must throw std::runtime_error or decode to a state
// that re-encodes to the mutated payload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "codec_fixtures.h"
#include "dist/adaptive.h"
#include "dist/fnv.h"
#include "dist/state_codec.h"
#include "dist/sweep.h"
#include "scenario/presets.h"
#include "sim/executor.h"
#include "stats/rng.h"

namespace divsec::dist {
namespace {

using fixtures::rich_state;
using fixtures::signed_bytes;
using fixtures::small_spec;

/// encode_shard_state(rich_state()), lowercase hex.
constexpr const char* kRichStateHex =
    "445653574545505304000000e80100007b22666f726d6174223a20226469767365632d73"
    "776565702d7374617465222c202276657273696f6e223a20342c2022707265736574223a"
    "2022706c616e745f736d616c6c222c2022706f6c6963696573223a205b226d6f6e6f6375"
    "6c74757265222c20227a6f6e652d73747261746966696564222c202272616e646f6d2d70"
    "65722d6e6f6465225d2c2022746872656174223a2022737475786e6574222c2022736565"
    "64223a20343234322c20227265706c69636174696f6e73223a2035302c20227265706c69"
    "636174696f6e5f626c6f636b223a20382c20227375706572626c6f636b223a2031362c20"
    "22737572766976616c5f62696e73223a2036342c2022686f72697a6f6e5f686f75727322"
    "3a20323136302c202263656c6c73223a20332c20226164617074697665223a2074727565"
    "2c20226163686965766564223a205b35302c2031362c2035305d2c20227368617264223a"
    "20302c202273686172645f636f756e74223a20312c20226d6572676564223a2074727565"
    "2c202277616c6c5f6d73223a20302e3030302c202274687265616473223a20312c202266"
    "696e6765727072696e74223a202235636235653034343932373264386135222c2022636f"
    "73745f66696e6765727072696e74223a202230316136376533383032343838346638227d"
    "2f0b706c616e745f736d616c6c07737475786e657403000102922132081040c0c0820703"
    "0332011001320100010100010403000101d523c0b201645664c098cdc7eecdddbcfd01c0"
    "ecdfef9de8f0e415bf9a97a4f89bbcb9e001c0b2010ec0b201bf9a97a4f89bbcb9e001c0"
    "b20164bf9a97a4f89bbcb9e00101bfb0f3ddadfda8bbe00101bfc6bfdae9a6d2817001bf"
    "e487b7f8eab7bc3001c09cd0eaf1b8a8e7ce0101c0c0849199b397c6de0101c0c0dcb2eb"
    "90ddb6ae0101c0c8b8b1a8d380e05a01c0ca94a7dafbd2b4f20101c0cee8ddf3f8f689ca"
    "0101c0daf4d1bfa0d4b1890101c0dec4cb988494c2e00101c0e48898a8aad2ebb00101c0"
    "ecf896c0eda5876f01c0f2ecea96d4a1dc6e01c0f2c8a4b8aca3906f01c0f2e0e4b8c7f2"
    "e9d00101c0f4e8abf5b28ba24201c0f6e0e8ad95a7d2950101c0fca0cff0d7dff61301c0"
    "fe94cbc3b59ec44001c0fee4c490dce38f0a01c080b1d8bf9fb1f6d60101c080b5c0cc9c"
    "becf860101c080eda8bab8c0b54401c080ddb3c1a4b496df0101c080f1bd9e8ddcc5bc01"
    "01c080d5eed485e9eaa40101c082adc0849dfdab0a01c082a9a19fe59f98cd0101c082d5"
    "c5dec6dddd0301c0828dffe8ae939d0b01c084e1f8e3d0c4f80401c086d9c2eef9fdf928"
    "01c088cdc2fdbae0bdce0101c088b9fcd795a7c92601c088cdfdc3839581840101c088c5"
    "beb1e2ee847f01c08a91838d9fdaa2980101c090f5b798ddf8cb3501c09481e2b3d0b199"
    "d90101c094f1a396e8d9a52201c096d9faa3829b9abe0101c096d1dcefa7cdb4da0101c0"
    "9689d5db9fb1b2820101c098f5f1bb8f9bd66001c098a1e3c79de0f36401c098b1a6c7b3"
    "ebaaf90101c098e5e6f0bed5e73701c098b1d7a2fbefe7e70101c09a99d8c896bafee901"
    "01c09afdf8bde28fea950101c09c89a58af2bda9a80101c09cedd6dfa3fae63001c09ef5"
    "94baa2bdede00101c09ec9af80ddf781890101c0a0ad808cb5dbc1920101c0a0cd8d93fa"
    "fab43d01c0a091e6a9a8d2f70a01c0a2fdb6deddb0e2f30101c0a299bfcaadb89fcc0101"
    "c0a4fde1d3fcc1e4e30101c0a4a99badcdb7b0cb0101c0a4e593eb89a2e2f90101c0a4cd"
    "9cf9b4abf1810101c0a68999bfdcf3b0a20101c0a6bdd1aff3fde14701c0a6c991df99d7"
    "c46e01c0a6f5899dd6a6bc6901c0a885c0d5beeea4bc0101c0a885b8df9af2cdd10101c0"
    "a8d194fbe7ec3f01c0a8f5e4ef9df5d29d0101c0a891e5a5b1dfd3c30101c0aac5a98a8a"
    "a7e4f70101c0aad9b191a7e1e7ff0101c0aae9dcc6f69eda2801c0aae5a686bfefa76601"
    "c0acc9aab2aca4a44801c0acc9f2a99fbf8c3f01c0ace5adf1fd96a8a50101c0aef9aae9"
    "92bb900201c0aeddfdc0a6d1b04201c0b0d599cfeea6c4850101c0b0a9e7fcd790c03e01"
    "c0b0c5afa6f9d299da0101c0b20101c0b20101c0b20101c0b20101c0b20101c0b20101c0"
    "b20101c0b20101c0b20101c0b20101c0b20101c0b20101c0b20101c0b20101c0b2016456"
    "1005050301060d060105090506060704041100100e64c096b5d0d994add55cc0eadff6c9"
    "e3fafe47bff48ff5d1bde9a250c0b099cf9997b3fa980120c0b201bff48ff5d1bde9a250"
    "c0b099cf9997b3fa980164bff48ff5d1bde9a25001c082ccdd91bdc9bc5b01c0869cf582"
    "978fd28c0101c08eacf7d3bfc5b8da0101c0a4909df499ea8ebb0101c0a8a0a6f8cdffbe"
    "1a01c0acd8bb92c3b9952401c0b2a0c0adf4cd91d40101c0c0d4b8d882de8e6301c0c088"
    "f98db7b3adc60101c0c8bc9cdfaf95a2e40101c0d08ca4b49ff5d9a90101c0d690abb186"
    "d6bf1401c0dcb4a8e5b7e5d53001c0de8cedeea8cad6ca0101c0e09488d4f0f7e04901c0"
    "e0d08cfccde59a9c0101c0e2c0b4e480dab7e10101c0e498efecb9c6dee00101c0e888b1"
    "8780d1e6fc0101c0eed899db869ca20b01c0eee0919589e8878d0101c0eeec84c6cc8adc"
    "ea0101c0f2bcbcdca7e3f24401c0f4b09fc6b8b2f27e01c0f6b0beecc2b9877201c0fafc"
    "80a2a0f99ef00101c0faece1e194f2ca4c01c0fab88af383f7936101c0faf4e3dd8297f8"
    "b80101c0feacaafcb4c1a14601c082ddebb8c799bf3701c082fdd799e59fe30201c08699"
    "83e5a2df9eb20101c086e5ddc4eff1fd5f01c08881bfd19ce5ae3c01c08c81889590abbb"
    "5f01c08cc9edfef4ebcbf10101c08c85ffbefcb7d44b01c090d189c3fbcaff7101c0908d"
    "e5b7ddb4cb3a01c09085e7a2a3e7f21201c090ddd797e6cbe61601c092e5d7c0ecbfcd0f"
    "01c0948db6a39786f5df0101c0988993e2b18b8f4f01c0988d8da2c0da96830101c09add"
    "a29385d7e07b01c09ab1bf98f5d7cbb10101c09af1e7fbc1a84f01c09afd879edb8bdb53"
    "01c09cc9c8f7cea3bc7f01c09cc5d5d4b3d087880101c09cb98689c5ccd73501c09cd5de"
    "e894bcf1af0101c09ed988b4e39ba83701c0a0f9a1a7c8d7bbe70101c0a0f9e9cacde085"
    "ee0101c0a0c9bac8d5f18d0e01c0a0ed9ac1cedb95d00101c0a091ed9af7e1bcd80101c0"
    "a2e990d9cb8f84cb0101c0a2e1c1838dc8bf6801c0a2ed83d4d784e8b50101c0a29dee88"
    "80f5c7890101c0a289f789d8cfa0970101c0a4a9d8a2b782c63001c0a4f9eda3e082bd7f"
    "01c0a4b99ec18ed0caac0101c0a4e5f6b7e8af9efb0101c0a6b9a8e4c2f3b4bb0101c0a6"
    "819ba783fcd6d30101c0a6819bee9f87e4ab0101c0a6c1cbf7e180ff1201c0a6d5e3dbdc"
    "dda19d0101c0a89599cc8cd8eb5d01c0a8ada1bbe084f80c01c0a8cdebc097f9e05201c0"
    "a8c195e682d1f87801c0a885b6b4ae83c1d50101c0aa8989c7e3edb83901c0aad9a1c19d"
    "d38ed40101c0aac5c580d2e38c3601c0aadde7b1b199e9880101c0ac95b0909b95e8ee01"
    "01c0ac85aaa2c8b8eafa0101c0acc5a386ce9bd1900101c0ace5f3accdf682e00101c0ac"
    "c99cf6fda0e14c01c0ac91cddfa0b1f68f0101c0ace19d88fba0a2980101c0ae81debacd"
    "cbd63d01c0ae859ef1a8dfd46f01c0b0a1d183dbc2f0a10101c0b0c18af1eb8196900101"
    "c0b08dab9987a7a56801c0b0ad8cabfdfbb81601c0b081f5db8ffea9c90101c0b0999e90"
    "a3a2ef900101c0b099cf9997b3fa980101c0b20164441004010302050300010401070506"
    "080606071103040303020001030301040100010100010202000164bfbab39f8fb7bdbc61"
    "c0beb89ec6e5aacc8c01bfb0e285b1bcdefea001bfdea3b28ca1f7b22ac0b20100001000"
    "10c0b2011f181fc098c9bba5ecffa80bc0c2ebd28ec2adc510c0ae98d5848889f64cc0b2"
    "0107c0b201c0ae98d5848889f64cc0b2011fc0ae98d5848889f64c01c0b680b480b2ddc7"
    "c80101c0d0e8f9f3c8a589e70101c0d098fc9ee189f70e01c0d6d0d6beea8d911601c0e2"
    "d0b1ffd797d46201c0e49084f8cfc6864d01c0eac4c3bfbcdb945101c0f0809e9c8f88ee"
    "7c01c0f2b0b4bc81c9e0840101c0f6d8b6d7c7bfc8d20101c08eb19a99eebc801401c090"
    "a59c8d83ed803901c094fdf0818cf7a8830101c098f98fb5aaf1831301c09a8da48b84ab"
    "8f5a01c09ae18dd5fab4cad80101c09ab9cfe486a4d4eb0101c0a289ae8bb8b893f30101"
    "c0a699c18096e8905301c0a6bda9de94bae2a90101c0aac1bafb898dccee0101c0ac859c"
    "e4c5f2e1ab0101c0aee5aa898393ea2501c0b20101c0b20101c0b20101c0b20101c0b201"
    "01c0b20101c0b20101c0b2011f1810010303020200020201040001010201020001110010"
    "071fc094f1fbd5b6bfbf03c0b6dbc3879799a4af01c08e84878eb990c3bd01c0b095deef"
    "ecd7e2d70104c0b201c08e84878eb990c3bd01c0b095deefecd7e2d7011fc08e84878eb9"
    "90c3bd0101c0acd48689db989df90101c0d4d0b7ebb0e5e5980101c0d8f4ffb58594fa9e"
    "0101c0dac896b890a998fe0101c0dcece0b9a6c5ca0101c0e2b4ecd58eb391cb0101c0ea"
    "80b9aee6aaee2501c0f2f0e4edb6d7973601c082e5eaf7a1df817901c0849183bbd6968c"
    "f80101c08499cce7bbd88aa40101c086e990cbf58cd15c01c092c9f7a5c9bd8a980101c0"
    "94f9b988ab9c937e01c0969997c283deed7601c09e919893a3ffa97701c0a0a5d9c1d68c"
    "8be10101c0a091a5f8b185fc2501c0a0adf7e482d597bc0101c0a489f4b9ae9e891101c0"
    "a4d586ea86cafe6c01c0a6c9c9e488f9c3b10101c0a6b592d08484840801c0a8cdc2e7ba"
    "e483c60101c0a885eee4fadfe18a0101c0acd1d1f4c29586f80101c0ae99deced18ed0d9"
    "0101c0b0c1c0f6c0de88f70101c0b0e188a799bde3dd0101c0b095deefecd7e2d70101c0"
    "b2011f1b1002000104010103010001020102010302000104110002010005010001010003"
    "0100021fbfc4d7d394d9b98ca401c08ca0dcd684b6dec401bfe0eea0f2eb9e8c58bfdeaf"
    "beaae0b2d48101c0b2010000100010c0b201403040c094bd9cbaeabeab1cc0ec93acc399"
    "ebd89801bfc283bee1ca8fabe001c0b20110c0b201bfc283bee1ca8fabe001c0b20140bf"
    "c283bee1ca8fabe00101bfc8ef8d99ac8184a80101bfe4f3f29a98eef9b00101bfecdb85"
    "848cc7d92c01bfecdbfdfea6958cf80101c08080d5baded6f96201c08aa0debeccd7b616"
    "01c09ae8b7ebcfb490b00101c0a688a5ccefb5ff3201c0ca90fcb5c5e6b52101c0ceb8b2"
    "8adcd0b17c01c0d0e0f6cafaece9ec0101c0d4e0a3ccbc90861c01c0d890daf0dd81df2b"
    "01c0e0a0b587e7d2ccfa0101c0e0bc9efc948fbe1601c0e2e494eaead09f860101c0e4c4"
    "f29f90d0846201c0e4fccc86a28199f00101c0eac0f089c9dfbd5001c0ea8ce99ae6f49e"
    "b20101c0f08496d0b1b5911e01c0f2b8faf2c5ab84ce0101c0f8c4feefa9a5b0e70101c0"
    "fcf0acb9b290bf4901c0feace583f29bee6e01c08085bba4eea7e15f01c082c992cac299"
    "f2800101c08299afcca4c2dbea0101c0849186b3b799c56201c08acdcd8cd0dfec6e01c0"
    "8cddc1ebe59bb03401c090d1aafbf1b3d0ff0101c092c9c2eb9990a08e0101c098ad96f0"
    "a7ffc2880101c09ce9e990af9a91ca0101c0a0d1bb9adda9e04201c0a0edcf9490c6ffd7"
    "0101c0a4a997a2acf5b17d01c0a6c9aab49a89d6cb0101c0a8f99085b9f984850101c0a8"
    "c1be92dcd091f40101c0aac9ab9a9ebbd1890101c0acc1d989b1ab812a01c0acbdd3b99e"
    "80930401c0ae9d99e8ff98813c01c0b085829c9fc8d85701c0b0cd92c6edfae44201c0b2"
    "0101c0b20101c0b20101c0b20101c0b20101c0b20101c0b20101c0b20101c0b20101c0b2"
    "0101c0b20101c0b20101c0b20101c0b20101c0b20101c0b20101c0b20140301009030703"
    "030402020102020001030203021100101040c090b1a896beabcf9601c0dcdb8ae4818ad0"
    "cb01bfeacfc3a4fe94fdd401c0b0dddbb4b5dcf7ce010fc0b201bfeacfc3a4fe94fdd401"
    "c0b0dddbb4b5dcf7ce0140bfeacfc3a4fe94fdd40101bfeee3eef6b99ef5d20101bffae3"
    "c0dec3a1bda00101c080f8cf91ca88d30901c09aa0c39b9eedb21001c0a68497fcc4f1c2"
    "7001c0acccd2ef8aa8f10601c0b0ec96b2a689966f01c0b680f3b9c6b2e0de0101c0c2f0"
    "b3a38986eb9e0101c0c8f897ebdda8e97e01c0caacafdf8b95d5e00101c0cecc8fc08894"
    "d95701c0d0e09d98dbcfa45c01c0d2b0f4efe5a3e3ad0101c0e88cbcb080bae6be0101c0"
    "e888c5f7f4b3a87d01c0ec84ca84fd81dc6601c0f084b188bca194900101c0f49cbeced7"
    "d2edd90101c0fa80a9d6dfb3bb1d01c082cdeaa3bc91f7910101c082f1bad2f2d89fd101"
    "01c082f5baf7f8bdbbec0101c084b5c1faa8f1dac70101c086cdc8d891e5b3db0101c088"
    "a5f387db9684f40101c08889dc98f2ebd42201c08889fcfea49b954e01c088b9b7fba182"
    "8ca70101c08cddaed587b0c30f01c08eadeba3dea5bf6001c08ef9bbbeb9ef9db80101c0"
    "8ea59cc2d7fac32e01c090f9d8fa83e6ea5601c094d997de89f8ff6d01c094f9cfdfeefb"
    "acdc0101c096a9b1d3bb8b880801c096b9eab6a8add5dd0101c098c9e5cd97e7c97401c0"
    "9cc9f9e9b8d8f12501c09ea5e4c889a3af0601c09eedb7e6a8cb995401c0a09581c2b2bc"
    "b13c01c0a4f9f8aafd8fdaeb0101c0a4cd99b2b199dbd50101c0a6c9f1a697f5a89f0101"
    "c0a6f9fc83decef42a01c0a6d58ee4a9cec92201c0a8d5f085badbda950101c0a88df3f4"
    "a0a19fdf0101c0aafdf1a2deb6eda50101c0aa99ed82cba9d92101c0acb1f8dabbf7fd1d"
    "01c0acd5a0deecdba13a01c0acb9e98ce0f2b05801c0acc1baf9c1efb2ac0101c0ac9ddf"
    "e3f5b597df0101c0acdddfe58298d16401c0aee5c3b8e9c9a1bf0101c0aeb5c4f8cab9f0"
    "6301c0aea99781afb5dd1901c0aef597deb8bdb1850101c0b0dddbb4b5dcf7ce0101c0b2"
    "014031100603010402030304030203020202050411020300030102010100030201010100"
    "0140bfc4ab80d5e780a55dc0a6ecc68282b7b8d501bfd0eadcd086dee260bfde93c7b5c2"
    "bcaef801c0b2010000100010190364bfa6cf99b3e6cc993410bfc0031fbfaad7aad5aad5"
    "aa551a0201030330c04abfa00302010110c020bf800303020101010201dcc4a03a50ec53"
    "e6";

std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0x0F]);
  }
  return out;
}

std::string from_hex(std::string_view hex) {
  std::string out(hex.size() / 2, '\0');
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<char>(std::stoi(std::string(hex.substr(2 * i, 2)), nullptr, 16));
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

/// Zero the fields that change from run to run (wall clocks, thread
/// counts, measured seconds), leaving only what the sweep determines.
ShardState without_timing(ShardState state) {
  state.meta.wall_ms = 0.0;
  state.meta.threads = 0;
  for (CellCost& c : state.cost.cells) c.seconds = 0.0;
  for (core::RoundLog& r : state.rounds) {
    r.wall_ms = 0.0;
    r.merge_ms = 0.0;
  }
  return state;
}

TEST(StateCodecGolden, RichStateEncodesToTheFixtureBytes) {
  EXPECT_EQ(to_hex(encode_shard_state(rich_state())), kRichStateHex);
}

TEST(StateCodecGolden, AccumulatorJsonMatchesPinnedDigests) {
  const ShardState state = rich_state();
  const std::uint64_t pinned[] = {0x8fa5972eca1b16c5ULL, 0x7720f190732ad8f6ULL,
                                  0x4163b3092ce56b8fULL};
  ASSERT_EQ(state.partials.size(), std::size(pinned));
  for (std::size_t i = 0; i < state.partials.size(); ++i)
    EXPECT_EQ(hex(fnv1a(accumulator_json(state.partials[i]))), hex(pinned[i]))
        << "partial " << i;
}

TEST(StateCodecGolden, SizesMatchPinned) {
  const ShardState state = rich_state();
  EXPECT_EQ(uncompressed_equivalent_bytes(state), 10134u);
  const StateSectionSizes sizes =
      state_section_sizes(encode_shard_state(state));
  EXPECT_EQ(sizes.header, 504u);
  EXPECT_EQ(sizes.meta, 48u);
  EXPECT_EQ(sizes.tasks, 5u);
  EXPECT_EQ(sizes.accumulators, 4567u);
  EXPECT_EQ(sizes.cost, 26u);
  EXPECT_EQ(sizes.rounds, 27u);
  EXPECT_EQ(sizes.checksum, 8u);
  EXPECT_EQ(sizes.total(), 5185u);
}

class StateCodecGoldenThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StateCodecGoldenThreads, MergedStateMatchesPinnedDigest) {
  const sim::Executor ex{GetParam()};
  std::vector<ShardState> shards;
  for (std::size_t i = 0; i < 3; ++i)
    shards.push_back(run_shard(small_spec(), i, 3, &ex));
  const ShardState merged = without_timing(merged_state(merge_shards(shards)));
  EXPECT_EQ(hex(fnv1a(encode_shard_state(merged))), "0x2635d6bba1f7d640");
}

TEST_P(StateCodecGoldenThreads, AdaptiveStateMatchesPinnedDigest) {
  const sim::Executor ex{GetParam()};
  core::AdaptiveOptions options;
  options.relative_precision = 0.10;
  options.absolute_precision = 0.02;
  const ShardState adaptive = without_timing(
      merged_state(run_adaptive(small_spec(), options, &ex)));
  EXPECT_EQ(hex(fnv1a(encode_shard_state(adaptive))), "0x60e3ebd9c657c131");
}

TEST_P(StateCodecGoldenThreads, ManyCellStateMatchesPinnedAndPacksFourfold) {
  // Many cells of few replications, the shape where fixed-width fields
  // would dominate a shard file: the packed bytes must stay at least 4x
  // smaller than their fixed-width equivalent (22.3x here).
  constexpr std::size_t kCells = 1024;
  SweepSpec spec;
  spec.preset = "enterprise256";
  spec.seed = 2013;
  spec.replications = 8;
  spec.replication_block = 8;
  spec.superblock = 8;  // one superblock task per cell
  spec.horizon_hours = 24.0;
  constexpr scenario::VariantPolicy kCycle[3] = {
      scenario::VariantPolicy::kMonoculture,
      scenario::VariantPolicy::kZoneStratified,
      scenario::VariantPolicy::kRandomPerNode};
  spec.policies.clear();
  for (std::size_t c = 0; c < kCells; ++c) spec.policies.push_back(kCycle[c % 3]);
  const sim::Executor ex{GetParam()};
  const ShardState state = without_timing(run_shard(spec, 0, 1, &ex));
  const std::string bytes = encode_shard_state(state);
  const std::size_t equivalent = uncompressed_equivalent_bytes(state);
  EXPECT_EQ(bytes.size(), 146703u);
  EXPECT_EQ(hex(fnv1a(bytes)), "0xb76504108fe83eb2");
  EXPECT_EQ(equivalent, 3270265u);
  EXPECT_GE(equivalent, 4 * bytes.size());
}

INSTANTIATE_TEST_SUITE_P(Threads, StateCodecGoldenThreads,
                         ::testing::Values(1u, 4u), [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

// ---- canonical payload bytes -----------------------------------------------

enum Section : std::size_t { kMeta, kTasks, kAccumulators, kCost, kRounds };

/// A state file cut into its framing header and its five section payloads
/// (length prefixes stripped), so a test can edit one payload and re-frame
/// the file around it.
struct Framed {
  std::string header;  // magic + version + JSON header
  std::vector<std::string> sections;

  static Framed split(const std::string& bytes) {
    const StateSectionSizes sizes = state_section_sizes(bytes);
    Framed f{bytes.substr(0, sizes.header), {}};
    std::size_t at = sizes.header;
    for (const std::size_t size : {sizes.meta, sizes.tasks, sizes.accumulators,
                                   sizes.cost, sizes.rounds}) {
      std::size_t prefix = 1;
      while (static_cast<unsigned char>(bytes[at + prefix - 1]) & 0x80) ++prefix;
      f.sections.push_back(bytes.substr(at + prefix, size - prefix));
      at += size;
    }
    return f;
  }

  [[nodiscard]] std::string join() const {
    std::string out = header;
    for (const std::string& s : sections) {
      std::uint64_t n = s.size();
      for (; n >= 0x80; n >>= 7) out.push_back(static_cast<char>((n & 0x7F) | 0x80));
      out.push_back(static_cast<char>(n));
      out += s;
    }
    return signed_bytes(out);
  }
};

/// Replace the last `n` bytes of a section payload.
void replace_tail(std::string& payload, std::size_t n, std::string_view with) {
  payload.replace(payload.size() - n, n, with);
}

TEST(StateCodecCanonical, SplitAndJoinReproduceTheFile) {
  const std::string bytes = encode_shard_state(rich_state());
  EXPECT_EQ(Framed::split(bytes).join(), bytes);
}

TEST(StateCodecCanonical, DefaultAccumulatorAdoptsItsFirstMergePartner) {
  // Every superblock fold (sim::reduce_task_partials, dist::merge_shards,
  // the adaptive round loop) starts from a default accumulator, so its
  // first merge must reproduce the partner's state byte for byte.
  const ShardState original = rich_state();
  ShardState adopted = original;
  for (core::IndicatorAccumulator::State& partial : adopted.partials) {
    core::IndicatorAccumulator acc;
    acc.merge(core::IndicatorAccumulator::from_state(partial));
    partial = acc.state();
  }
  EXPECT_EQ(encode_shard_state(adopted), encode_shard_state(original));
}

/// rich_state's meta payload ends with shard 0, shard_count 1, merged 1,
/// wall_ms 0.0 (varf64 byte 0x00) and threads 1.
Framed rich_framed() {
  Framed f = Framed::split(encode_shard_state(rich_state()));
  const std::string& meta = f.sections[kMeta];
  EXPECT_EQ(meta.substr(meta.size() - 5), std::string("\x00\x01\x01\x00\x01", 5));
  return f;
}

TEST(StateCodecCanonical, RejectsOverlongVarint) {
  Framed f = rich_framed();
  replace_tail(f.sections[kMeta], 1, std::string("\x81\x00", 2));  // threads 1, padded
  EXPECT_THROW((void)decode_shard_state(f.join()), std::runtime_error);
}

TEST(StateCodecCanonical, RejectsMergedFlagOtherThanZeroOrOne) {
  Framed f = rich_framed();
  f.sections[kMeta][f.sections[kMeta].size() - 3] = '\x02';
  EXPECT_THROW((void)decode_shard_state(f.join()), std::runtime_error);
}

TEST(StateCodecCanonical, RejectsThreadCountAbove32Bits) {
  Framed f = rich_framed();
  replace_tail(f.sections[kMeta], 1, "\x81\x80\x80\x80\x10");  // 2^32 + 1
  EXPECT_THROW((void)decode_shard_state(f.join()), std::runtime_error);
}

TEST(StateCodecCanonical, RejectsSurvivalBinsOutOfRange) {
  // The bin count sizes every cell's survival grid downstream, so the
  // decoder bounds it before any engine is built.
  constexpr std::uint64_t kOver = stats::kMaxSurvivalBins + 1;
  for (const std::uint64_t bins : {std::uint64_t{0}, kOver}) {
    ShardState state = rich_state();
    state.meta.survival_bins = bins;
    try {
      (void)decode_shard_state(encode_shard_state(state));
      ADD_FAILURE() << "decoded survival_bins = " << bins;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("survival_bins"), std::string::npos)
          << e.what();
    }
  }
  ShardState at_bound = rich_state();
  at_bound.meta.survival_bins = stats::kMaxSurvivalBins;
  EXPECT_EQ(decode_shard_state(encode_shard_state(at_bound)).meta.survival_bins,
            stats::kMaxSurvivalBins);
}

TEST(StateCodecCanonical, RejectsZeroRunSplitInTwo) {
  ShardState state = rich_state();
  state.partials.back().curve.sums = {0, 0, 0, 0};
  Framed f = Framed::split(encode_shard_state(state));
  // The accumulators end with the last curve: length 4, then (0, run 4).
  std::string& acc = f.sections[kAccumulators];
  ASSERT_EQ(acc.substr(acc.size() - 3), std::string("\x04\x00\x04", 3));
  replace_tail(acc, 2, std::string("\x00\x01\x00\x03", 4));
  EXPECT_THROW((void)decode_shard_state(f.join()), std::runtime_error);
}

TEST(StateCodecCanonical, RejectsValueRunSplitInTwo) {
  ShardState state = rich_state();
  state.cell_rounds = {3, 3, 3};
  Framed f = Framed::split(encode_shard_state(state));
  // The rounds section ends with cell_rounds: length 3, then (3, run 3).
  std::string& rounds = f.sections[kRounds];
  ASSERT_EQ(rounds.substr(rounds.size() - 3), "\x03\x03\x03");
  replace_tail(rounds, 2, "\x03\x01\x03\x02");
  EXPECT_THROW((void)decode_shard_state(f.join()), std::runtime_error);
}

// ---- mutation replay ---------------------------------------------------------

/// The payload: everything after the informational JSON header (which
/// encode re-renders from the meta and decode never reads) and before
/// the checksum.
std::string_view payload(std::string_view bytes) {
  const std::size_t header = state_section_sizes(bytes).header;
  return bytes.substr(header, bytes.size() - header - 8);
}

/// One to three stacked mutations of the golden payload, re-signed.
std::string mutate(const std::string& golden, std::size_t header,
                   stats::Rng& rng) {
  std::string body = golden.substr(header, golden.size() - header - 8);
  for (std::uint64_t k = 1 + rng.below(3); k > 0; --k) {
    const std::size_t at = rng.below(body.size() + 1);
    const bool inside = at < body.size();
    switch (rng.below(5)) {
      case 0:  // bit flip
        if (inside) body[at] = static_cast<char>(body[at] ^ (1 << rng.below(8)));
        break;
      case 1:  // byte overwrite
        if (inside) body[at] = static_cast<char>(rng.below(256));
        break;
      case 2:  // truncation
        body.resize(at);
        break;
      case 3:  // insertion of 1-8 random bytes
        for (std::uint64_t n = 1 + rng.below(8); n > 0; --n)
          body.insert(body.begin() + static_cast<std::ptrdiff_t>(at),
                      static_cast<char>(rng.below(256)));
        break;
      default:  // deletion of 1-8 bytes
        body.erase(at, 1 + rng.below(8));
    }
  }
  return signed_bytes(golden.substr(0, header) + body);
}

void replay_mutations(std::size_t count, std::uint64_t seed) {
  const std::string golden = from_hex(kRichStateHex);
  const std::size_t header = state_section_sizes(golden).header;
  stats::Rng rng(seed);
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::string bytes = mutate(golden, header, rng);
    ShardState decoded;
    try {
      decoded = decode_shard_state(bytes);
    } catch (const std::runtime_error&) {
      continue;
    } catch (const std::exception& e) {
      FAIL() << "mutation " << i << ": decode threw a non-runtime_error: "
             << e.what();
    }
    ++accepted;
    const std::string again = encode_shard_state(decoded);
    const std::string_view want = payload(bytes), got = payload(again);
    if (got != want) {
      std::size_t at = 0;
      while (at < std::min(got.size(), want.size()) && got[at] == want[at]) ++at;
      FAIL() << "mutation " << i << " decoded from non-canonical bytes: "
             << "the re-encoded payload differs from byte " << at;
    }
  }
  std::printf("%zu of %zu mutations decoded and re-encoded byte-exact\n",
              accepted, count);
  // Some mutations (a flipped mantissa bit, a changed count) are valid
  // states; the round-trip check must have seen them.
  EXPECT_GT(accepted, 0u);
}

TEST(StateCodecMutation, TenThousandSeededMutations) {
  replay_mutations(10'000, 0x5EED0001);
}

// Nightly scale (nightly.yml runs it with --gtest_also_run_disabled_tests).
TEST(StateCodecMutation, DISABLED_OneMillionSeededMutations) {
  replay_mutations(1'000'000, 0x5EED0002);
}

}  // namespace
}  // namespace divsec::dist
