// ADMV pinned to fixed bits: the objective and plan of the partial-
// verification DP (paper Section III-B) on Table I x {uniform, decrease,
// highlow} x n, total weight 25 000 s, at every supported SIMD tier.
// The tier battery (simd_kernels_test.cpp) only compares tiers with each
// other, so a change to the scalar reference itself would slip past it;
// this table does not move with the code.  The n straddle the 4- and
// 8-lane group boundaries of the inner DP's lanes (n = 1 ... 2W + 1) and
// reach the paper grid's scale (n = 48).
//
// The expected values were generated at the scalar tier.  Regenerate
// them only for a change that is meant to move ADMV's objective or plans.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "chain/patterns.hpp"
#include "core/dp_partial.hpp"
#include "core/simd/simd_dispatch.hpp"
#include "platform/registry.hpp"

namespace chainckpt::core {
namespace {

using chain::Pattern;
using simd::SimdTier;

struct Golden {
  const char* platform;
  Pattern pattern;
  std::size_t n;
  std::uint64_t objective_bits;
  const char* plan;
};

constexpr Golden kGolden[] = {
    {"Hera", Pattern::kUniform, 1, 0x40db35479002f4eeULL, "D"},
    {"Hera", Pattern::kUniform, 2, 0x40da2233ada1ab60ULL, "MD"},
    {"Hera", Pattern::kUniform, 3, 0x40d9cd91513c4127ULL, "MMD"},
    {"Hera", Pattern::kUniform, 4, 0x40d9a77f7dba3b3dULL, "MMMD"},
    {"Hera", Pattern::kUniform, 5, 0x40d993e2bbfffff5ULL, "MMMMD"},
    {"Hera", Pattern::kUniform, 7, 0x40d98441006480d1ULL, "MMMMMMD"},
    {"Hera", Pattern::kUniform, 8, 0x40d9825047970560ULL, "MMMMMMMD"},
    {"Hera", Pattern::kUniform, 9, 0x40d9828b1e8a138bULL, "MMMMMMMMD"},
    {"Hera", Pattern::kUniform, 12, 0x40d9774f9f55ed12ULL, "vMvMvMvMvMvD"},
    {"Hera", Pattern::kUniform, 16, 0x40d9732be19947cbULL, "vvMvvMvvMvvMvMvD"},
    {"Hera", Pattern::kUniform, 17, 0x40d9718382838fffULL, "vvMvvMvvMvvMvvMvD"},
    {"Hera", Pattern::kUniform, 24, 0x40d96bb24f6571c1ULL, "vvvMvvvMvvvMvvvMvvvMvvvD"},
    {"Hera", Pattern::kUniform, 33, 0x40d9688f9145d365ULL, "vvvvvMvvvvvMvvvvvMvvvvMvvvvMvvvvD"},
    {"Hera", Pattern::kUniform, 48, 0x40d965689f910b14ULL, "vvvvvvvMvvvvvvvMvvvvvvvMvvvvvvvMvvvvvvvMvvvvvvvD"},
    {"Hera", Pattern::kDecrease, 1, 0x40db35479002f4eeULL, "D"},
    {"Hera", Pattern::kDecrease, 2, 0x40da87e882e65e46ULL, "MD"},
    {"Hera", Pattern::kDecrease, 3, 0x40da2a7a72bc968eULL, "MMD"},
    {"Hera", Pattern::kDecrease, 4, 0x40d9f1f18206ec45ULL, "MMvD"},
    {"Hera", Pattern::kDecrease, 5, 0x40d9d106d2a1b3b8ULL, "MMMvD"},
    {"Hera", Pattern::kDecrease, 7, 0x40d9aa0fcb473036ULL, "MMMvvvD"},
    {"Hera", Pattern::kDecrease, 8, 0x40d99df4529aec16ULL, "MMMMvvvD"},
    {"Hera", Pattern::kDecrease, 9, 0x40d9959537602c43ULL, "MMMMvvv-D"},
    {"Hera", Pattern::kDecrease, 12, 0x40d9862b8523f081ULL, "MMMMvMvvvv-D"},
    {"Hera", Pattern::kDecrease, 16, 0x40d97d86f37d6eacULL, "MMMvMvMvvvvvv--D"},
    {"Hera", Pattern::kDecrease, 17, 0x40d97c2e3083bddaULL, "MMMMvMvMvvvvv---D"},
    {"Hera", Pattern::kDecrease, 24, 0x40d975c7c0dd97d4ULL, "MvMvMvMvvvMvvvvvvvv----D"},
    {"Hera", Pattern::kDecrease, 33, 0x40d96f6b815d68ebULL, "vMvMvvMvvMvvvvMvvvvvvvvv-v------D"},
    {"Hera", Pattern::kDecrease, 48, 0x40d96a8f96901ccaULL, "vvMvvMvvvMvvvvMvvvvvvMvvvvvvvvv-v-v--v---------D"},
    {"Hera", Pattern::kHighLow, 1, 0x40db35479002f4eeULL, "D"},
    {"Hera", Pattern::kHighLow, 2, 0x40da2d7709c1554fULL, "MD"},
    {"Hera", Pattern::kHighLow, 3, 0x40da091b8d77e242ULL, "MMD"},
    {"Hera", Pattern::kHighLow, 4, 0x40da0243a377ef2eULL, "MMMD"},
    {"Hera", Pattern::kHighLow, 5, 0x40da005ce7e74962ULL, "MvMvD"},
    {"Hera", Pattern::kHighLow, 7, 0x40d9fc7d3c40d281ULL, "MvMvMvD"},
    {"Hera", Pattern::kHighLow, 8, 0x40d9fc0997a2383fULL, "MvvvMvvD"},
    {"Hera", Pattern::kHighLow, 9, 0x40d9fab7323b396aULL, "MvvvMvvvD"},
    {"Hera", Pattern::kHighLow, 12, 0x40d9f92b36adc090ULL, "MvvvvvMvvvvD"},
    {"Hera", Pattern::kHighLow, 16, 0x40d99bdfd4442c15ULL, "MMvvvvvvMvvvvvvD"},
    {"Hera", Pattern::kHighLow, 17, 0x40d99bbb34f2192aULL, "MMvvvvvvvMvvvvvvD"},
    {"Hera", Pattern::kHighLow, 24, 0x40d99aa52cbbd36bULL, "MMvvvvvvvvvvMvvvvvvvvvvD"},
    {"Hera", Pattern::kHighLow, 33, 0x40d9811fba0cdb95ULL, "MMMvvvvvvvvvvvvvvMvvvvvvvvvvvvvvD"},
    {"Hera", Pattern::kHighLow, 48, 0x40d975679c7a2bf9ULL, "MMMMvvvvvvMvvvvvvvvvvvvvvvvvvMvvvvvvvvvvvvvvvvvD"},
    {"Atlas", Pattern::kUniform, 1, 0x40de4c2fe4eb1cbbULL, "D"},
    {"Atlas", Pattern::kUniform, 2, 0x40db8f245f8663e8ULL, "MD"},
    {"Atlas", Pattern::kUniform, 3, 0x40dab649c90f6b25ULL, "MMD"},
    {"Atlas", Pattern::kUniform, 4, 0x40da4ea46c4f252aULL, "MMMD"},
    {"Atlas", Pattern::kUniform, 5, 0x40da1312739c6a70ULL, "MMMMD"},
    {"Atlas", Pattern::kUniform, 7, 0x40d9d3a1c1e6c6f8ULL, "MMMMMMD"},
    {"Atlas", Pattern::kUniform, 8, 0x40d9c1adf4ba921fULL, "MMMMMMMD"},
    {"Atlas", Pattern::kUniform, 9, 0x40d9b4c90269f5bfULL, "MMMMMMMMD"},
    {"Atlas", Pattern::kUniform, 12, 0x40d99fb59eb2272fULL, "MMMMMMMMMMMD"},
    {"Atlas", Pattern::kUniform, 16, 0x40d9980883f84634ULL, "MMMMMMMMMMMMMMMD"},
    {"Atlas", Pattern::kUniform, 17, 0x40d998093185dddeULL, "MMMMMMMMMMMMMMMMD"},
    {"Atlas", Pattern::kUniform, 24, 0x40d98afc24925e1dULL, "vMvMvMvMvMvMvMvMvMvMvMvD"},
    {"Atlas", Pattern::kUniform, 33, 0x40d9848f9abf621aULL, "vvMvvMvvMvvMvvMvvMvvMvvMvvMvvMvvD"},
    {"Atlas", Pattern::kUniform, 48, 0x40d97dbc07fcf0afULL, "vvvMvvvMvvvMvvvMvvvMvvvMvvvMvvvMvvvMvvvMvvvMvvvD"},
    {"Atlas", Pattern::kDecrease, 1, 0x40de4c2fe4eb1cbbULL, "D"},
    {"Atlas", Pattern::kDecrease, 2, 0x40dc8cd0067ce324ULL, "MD"},
    {"Atlas", Pattern::kDecrease, 3, 0x40db984f49e46310ULL, "MMD"},
    {"Atlas", Pattern::kDecrease, 4, 0x40db0ccdf5376084ULL, "MMMD"},
    {"Atlas", Pattern::kDecrease, 5, 0x40dab23ae5c2276bULL, "MMMvD"},
    {"Atlas", Pattern::kDecrease, 7, 0x40da4947a06e8bdaULL, "MMMMvvD"},
    {"Atlas", Pattern::kDecrease, 8, 0x40da2803175e22a3ULL, "MMMMMvvD"},
    {"Atlas", Pattern::kDecrease, 9, 0x40da0ed4bc6c34acULL, "MMMMMvvvD"},
    {"Atlas", Pattern::kDecrease, 12, 0x40d9dd0f03e5e212ULL, "MMMMMMMvvv-D"},
    {"Atlas", Pattern::kDecrease, 16, 0x40d9ba618efff2a5ULL, "MMMMMMMvMvvvv--D"},
    {"Atlas", Pattern::kDecrease, 17, 0x40d9b4b91e4452c8ULL, "MMMMMMMMvMvvvv--D"},
    {"Atlas", Pattern::kDecrease, 24, 0x40d99d671541b7acULL, "MMMMMMMMMvMvvMvvvvvv---D"},
    {"Atlas", Pattern::kDecrease, 33, 0x40d991981fcc2215ULL, "MMMMMMMMvMvMvvMvvvMvvvvvvv-v----D"},
    {"Atlas", Pattern::kDecrease, 48, 0x40d98952a64c25dfULL, "MMvMvMvMvMvMvvMvvMvvvMvvvvMvvvvvvvvv-v-v-------D"},
    {"Atlas", Pattern::kHighLow, 1, 0x40de4c2fe4eb1cbbULL, "D"},
    {"Atlas", Pattern::kHighLow, 2, 0x40dbab46687a7040ULL, "MD"},
    {"Atlas", Pattern::kHighLow, 3, 0x40db47b04ebd91ecULL, "MMD"},
    {"Atlas", Pattern::kHighLow, 4, 0x40db2a5d22d1643bULL, "MMMD"},
    {"Atlas", Pattern::kHighLow, 5, 0x40db1e22b2263e93ULL, "MMMMD"},
    {"Atlas", Pattern::kHighLow, 7, 0x40db1692115d7678ULL, "MMMMMMD"},
    {"Atlas", Pattern::kHighLow, 8, 0x40db1661ff792562ULL, "MMMMMMMD"},
    {"Atlas", Pattern::kHighLow, 9, 0x40db14229a9fc06bULL, "MvMvMvMvD"},
    {"Atlas", Pattern::kHighLow, 12, 0x40db10892453c7dcULL, "MvvMvMvMvMvD"},
    {"Atlas", Pattern::kHighLow, 16, 0x40da227a05ef164bULL, "MMvvMvvMvvMvvMvD"},
    {"Atlas", Pattern::kHighLow, 17, 0x40da21922a9ffc17ULL, "MMvvMvvMvvMvvMvvD"},
    {"Atlas", Pattern::kHighLow, 24, 0x40da1f85537b838dULL, "MMvvvvMvvvvMvvvMvvvMvvvD"},
    {"Atlas", Pattern::kHighLow, 33, 0x40d9d53ad3d8eeeaULL, "MMMvvvvvMvvvvvMvvvvvMvvvvvMvvvvvD"},
    {"Atlas", Pattern::kHighLow, 48, 0x40d9a09b2d5c0549ULL, "MMMMMvvvvvvvvMvvvvvvvvMvvvvvvvvMvvvvvvvMvvvvvvvD"},
    {"Coastal", Pattern::kUniform, 1, 0x40dad64ae95b8135ULL, "D"},
    {"Coastal", Pattern::kUniform, 2, 0x40da351ae263f28aULL, "MD"},
    {"Coastal", Pattern::kUniform, 3, 0x40da019ac65813b4ULL, "MMD"},
    {"Coastal", Pattern::kUniform, 4, 0x40d9e91eb855ae78ULL, "MMMD"},
    {"Coastal", Pattern::kUniform, 5, 0x40d9db607e8ee346ULL, "MMMMD"},
    {"Coastal", Pattern::kUniform, 7, 0x40d9cda601a2a597ULL, "MMMMMMD"},
    {"Coastal", Pattern::kUniform, 8, 0x40d9ca3708e33b2fULL, "MMMMMMMD"},
    {"Coastal", Pattern::kUniform, 9, 0x40d9c80cc3d9a650ULL, "MMMMMMMMD"},
    {"Coastal", Pattern::kUniform, 12, 0x40d9c5fd0b6c685bULL, "MMMMMMMMMMMD"},
    {"Coastal", Pattern::kUniform, 16, 0x40d9c24f807b69feULL, "vMvMvMvMvMvMvMvD"},
    {"Coastal", Pattern::kUniform, 17, 0x40d9c208a71df053ULL, "vMvMvMvMvMvMvMvMD"},
    {"Coastal", Pattern::kUniform, 24, 0x40d9bf07a1be438bULL, "vvMvvMvvMvvMvvMvvMvvMvvD"},
    {"Coastal", Pattern::kUniform, 33, 0x40d9bd2da18d8115ULL, "vvvvMvvvMvvvMvvvMvvvMvvvMvvvMvvvD"},
    {"Coastal", Pattern::kUniform, 48, 0x40d9bb57d339621bULL, "vvvvvMvvvvvMvvvvvMvvvvvMvvvvvMvvvvvMvvvvvMvvvvvD"},
    {"Coastal", Pattern::kDecrease, 1, 0x40dad64ae95b8135ULL, "D"},
    {"Coastal", Pattern::kDecrease, 2, 0x40da6fed6d6bc99cULL, "MD"},
    {"Coastal", Pattern::kDecrease, 3, 0x40da3798c8c9abc1ULL, "MMD"},
    {"Coastal", Pattern::kDecrease, 4, 0x40da16c63d123127ULL, "MMvD"},
    {"Coastal", Pattern::kDecrease, 5, 0x40da015b8e7d7efeULL, "MMMvD"},
    {"Coastal", Pattern::kDecrease, 7, 0x40d9e8b6ace94528ULL, "MMMMvvD"},
    {"Coastal", Pattern::kDecrease, 8, 0x40d9e1481d94064eULL, "MMMMvvvD"},
    {"Coastal", Pattern::kDecrease, 9, 0x40d9db529dbbebacULL, "MMMMMvvvD"},
    {"Coastal", Pattern::kDecrease, 12, 0x40d9d06ca5447a8dULL, "MMMMMvMvvv-D"},
    {"Coastal", Pattern::kDecrease, 16, 0x40d9c91919b764aaULL, "MMMMMMvMvvvvv--D"},
    {"Coastal", Pattern::kDecrease, 17, 0x40d9c80b81be9960ULL, "MMMMMvMvMvvvvv--D"},
    {"Coastal", Pattern::kDecrease, 24, 0x40d9c3853d659980ULL, "MMMMMvMvMvvMvvvvvvv----D"},
    {"Coastal", Pattern::kDecrease, 33, 0x40d9c11b16f29eb9ULL, "MMvMvMvMvMvvMvvvMvvvvvvvv-v-----D"},
    {"Coastal", Pattern::kDecrease, 48, 0x40d9be42853ad047ULL, "vMvMvMvMvvMvvMvvvMvvvvvMvvvvvvvvv-v-v-v--------D"},
    {"Coastal", Pattern::kHighLow, 1, 0x40dad64ae95b8135ULL, "D"},
    {"Coastal", Pattern::kHighLow, 2, 0x40da3ba29565474aULL, "MD"},
    {"Coastal", Pattern::kHighLow, 3, 0x40da2432a326ac4fULL, "MMD"},
    {"Coastal", Pattern::kHighLow, 4, 0x40da1def1f2d01bfULL, "MMMD"},
    {"Coastal", Pattern::kHighLow, 5, 0x40da1bf022663110ULL, "MMMMD"},
    {"Coastal", Pattern::kHighLow, 7, 0x40da1a8e6b47a1faULL, "MvMvMvD"},
    {"Coastal", Pattern::kHighLow, 8, 0x40da1a3e9ba11d06ULL, "MvMvMvMD"},
    {"Coastal", Pattern::kHighLow, 9, 0x40da196c75f9e2d2ULL, "MvMvMvMvD"},
    {"Coastal", Pattern::kHighLow, 12, 0x40da18bb73859ccfULL, "MvvvMvvvMvvD"},
    {"Coastal", Pattern::kHighLow, 16, 0x40d9e040c71d6c2eULL, "MMvvvvMvvvvMvvvD"},
    {"Coastal", Pattern::kHighLow, 17, 0x40d9e006f2a2c049ULL, "MMvvvvMvvvvMvvvvD"},
    {"Coastal", Pattern::kHighLow, 24, 0x40d9df7152f7fae9ULL, "MMvvvvvvvMvvvvvvMvvvvvvD"},
    {"Coastal", Pattern::kHighLow, 33, 0x40d9ce1fd282fab9ULL, "MMMvvvvvvvvvMvvvvvvvvvMvvvvvvvvvD"},
    {"Coastal", Pattern::kHighLow, 48, 0x40d9c321cbb9be35ULL, "MMMMMvvvvvvvvvvvvvvMvvvvvvvvvvvvvMvvvvvvvvvvvvvD"},
    {"CoastalSSD", Pattern::kUniform, 1, 0x40dc9b03d85d2883ULL, "D"},
    {"CoastalSSD", Pattern::kUniform, 2, 0x40dc531cec920234ULL, "MD"},
    {"CoastalSSD", Pattern::kUniform, 3, 0x40dc3d284186fc90ULL, "vvD"},
    {"CoastalSSD", Pattern::kUniform, 4, 0x40dc2de91f4219d8ULL, "vvvD"},
    {"CoastalSSD", Pattern::kUniform, 5, 0x40dc2451c8b4024aULL, "vvvvD"},
    {"CoastalSSD", Pattern::kUniform, 7, 0x40dc192767a1eb59ULL, "vvvvvvD"},
    {"CoastalSSD", Pattern::kUniform, 8, 0x40dc15b4b5dd360aULL, "vvvvvvvD"},
    {"CoastalSSD", Pattern::kUniform, 9, 0x40dc13155f65cf6dULL, "vvvvvvvvD"},
    {"CoastalSSD", Pattern::kUniform, 12, 0x40dc0e301ffd4668ULL, "vvvvvvvvvvvD"},
    {"CoastalSSD", Pattern::kUniform, 16, 0x40dc0b3a630efbb3ULL, "vvvvvvvvvvvvvvvD"},
    {"CoastalSSD", Pattern::kUniform, 17, 0x40dc0ad55190cc9eULL, "vvvvvvvvvvvvvvvvD"},
    {"CoastalSSD", Pattern::kUniform, 24, 0x40dc0a09b98ff8f6ULL, "vvvvvvvvvvvvvvvvvvvvvvvD"},
    {"CoastalSSD", Pattern::kUniform, 33, 0x40dc0b04687d43edULL, "-v-v-v-v-v-v-v-v-v-v-v-v-v-v-v-vD"},
    {"CoastalSSD", Pattern::kUniform, 48, 0x40dc0a09b98ff8f2ULL, "-v-v-v-v-v-v-v-v-v-v-v-v-v-v-v-v-v-v-v-v-v-v-v-D"},
    {"CoastalSSD", Pattern::kDecrease, 1, 0x40dc9b03d85d2883ULL, "D"},
    {"CoastalSSD", Pattern::kDecrease, 2, 0x40dc6fc554352c0aULL, "vD"},
    {"CoastalSSD", Pattern::kDecrease, 3, 0x40dc55fc6a2c0624ULL, "vvD"},
    {"CoastalSSD", Pattern::kDecrease, 4, 0x40dc44f7ca3cd1a2ULL, "MvvD"},
    {"CoastalSSD", Pattern::kDecrease, 5, 0x40dc3a02e339760eULL, "vvvvD"},
    {"CoastalSSD", Pattern::kDecrease, 7, 0x40dc2b1ce47887a3ULL, "vvvvv-D"},
    {"CoastalSSD", Pattern::kDecrease, 8, 0x40dc263bd90a7fecULL, "vvvvv--D"},
    {"CoastalSSD", Pattern::kDecrease, 9, 0x40dc2214c8bff276ULL, "vvvvvv--D"},
    {"CoastalSSD", Pattern::kDecrease, 12, 0x40dc19ce97d351abULL, "vvvvvvvv---D"},
    {"CoastalSSD", Pattern::kDecrease, 16, 0x40dc13995df03b64ULL, "vvvvvvvvv-v----D"},
    {"CoastalSSD", Pattern::kDecrease, 17, 0x40dc1290612a7606ULL, "vvvvvvvvv-v-----D"},
    {"CoastalSSD", Pattern::kDecrease, 24, 0x40dc0deaa5dfcfcaULL, "vvvvvvvvvvv-v--v-------D"},
    {"CoastalSSD", Pattern::kDecrease, 33, 0x40dc0b7e2d5ca6eaULL, "vvvvvvvvvvv-vv-v-v---v----------D"},
    {"CoastalSSD", Pattern::kDecrease, 48, 0x40dc0a6cbde0a2ffULL, "vvvvvvvvvvv-v-v-v-v-v--v---v----v--------------D"},
    {"CoastalSSD", Pattern::kHighLow, 1, 0x40dc9b03d85d2883ULL, "D"},
    {"CoastalSSD", Pattern::kHighLow, 2, 0x40dc595383ed52e9ULL, "MD"},
    {"CoastalSSD", Pattern::kHighLow, 3, 0x40dc4aa7b55b7383ULL, "vvD"},
    {"CoastalSSD", Pattern::kHighLow, 4, 0x40dc43b3ddb18b68ULL, "vvvD"},
    {"CoastalSSD", Pattern::kHighLow, 5, 0x40dc400ecb33d0f7ULL, "vvvvD"},
    {"CoastalSSD", Pattern::kHighLow, 7, 0x40dc3c9f4dba5754ULL, "vvvvvvD"},
    {"CoastalSSD", Pattern::kHighLow, 8, 0x40dc3bcb3cf5f39cULL, "vvvvvvvD"},
    {"CoastalSSD", Pattern::kHighLow, 9, 0x40dc3b464d73c2b4ULL, "vvvvvvvvD"},
    {"CoastalSSD", Pattern::kHighLow, 12, 0x40dc3c4736919100ULL, "v-vvv-vvv-vD"},
    {"CoastalSSD", Pattern::kHighLow, 16, 0x40dc2367bbef4552ULL, "vv-v-v-v-v-v-v-D"},
    {"CoastalSSD", Pattern::kHighLow, 17, 0x40dc233b2a95c598ULL, "vv-v-v-v-v-v-v-vD"},
    {"CoastalSSD", Pattern::kHighLow, 24, 0x40dc23388b3ce2baULL, "vv--v--v--v--v-v--v--v-D"},
    {"CoastalSSD", Pattern::kHighLow, 33, 0x40dc1909977d1358ULL, "vvv---v--v--v--v---v--v---v--v--D"},
    {"CoastalSSD", Pattern::kHighLow, 48, 0x40dc1078fac45eaeULL, "vvvvv------v----v----v----v----v----v-----v----D"},
};

std::uint64_t bits_of(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

TEST(AdmvGolden, ObjectiveBitsAndPlansAtEverySupportedTier) {
  std::vector<SimdTier> tiers{SimdTier::kScalar};
  for (SimdTier tier : {SimdTier::kAvx2, SimdTier::kAvx512}) {
    if (simd::tier_supported(tier)) tiers.push_back(tier);
  }
  for (const Golden& want : kGolden) {
    const platform::CostModel costs(platform::by_name(want.platform));
    const auto chain = chain::make_pattern(want.pattern, want.n, 25000.0);
    for (SimdTier tier : tiers) {
      DpContext ctx(chain, costs);
      ctx.set_simd_tier(tier);
      const OptimizationResult got = optimize_with_partial(ctx);
      const std::string who = std::string(want.platform) + " " +
                              chain::to_string(want.pattern) + " n=" +
                              std::to_string(want.n) + " @" +
                              simd::tier_name(tier);
      EXPECT_EQ(bits_of(got.expected_makespan), want.objective_bits) << who;
      EXPECT_EQ(got.plan.compact_string(), want.plan) << who;
    }
  }
}

}  // namespace
}  // namespace chainckpt::core
