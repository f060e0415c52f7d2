//! Golden bits for every estimator.
//!
//! Each row pins one configuration's full answer: the yield, interval
//! and disagreement bits, the evaluation count, the reported method and
//! an FNV-64 of the per-channel yield bits. The table covers every
//! `Method` × control variate (off, on, and on with a zero disagreement
//! threshold, which distrusts the surrogate after its first
//! disagreement) × two problems (a 10-stage line, and an 8-channel
//! network with ρ = 0.5 regional correlation whose rounds fan out) × four
//! budgets (the default early stop, and fixed 4096, 1001 and 1 dies). A
//! refactor of the estimator must leave every row unchanged; a change
//! that moves answers on purpose rewrites the table and says why.
//!
//! On a mismatch the failure message prints the whole table as computed,
//! in the literal form below.

use pi_yield::{
    estimate_network_yield, DriveVariation, EstimatorConfig, LineProblem, Method, NetworkProblem,
    SpatialCorrelation, StageDelays,
};

/// `(problem, method, control variate, budget, yield bits, half-width bits,
/// disagreement bits, evals, reported method, FNV-64 of channel bits)`.
type Golden = (
    &'static str,
    &'static str,
    &'static str,
    &'static str,
    u64,
    u64,
    u64,
    usize,
    &'static str,
    u64,
);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("line", "naive", "off", "default", 0x3fea408102040810, 0x3f71174f8c3dfb85, 0x0000000000000000, 32512, "naive", 0x1948181ae9f31af5),
    ("line", "naive", "off", "fixed-4096", 0x3fea300000000000, 0x3f882d71d5dc9214, 0x0000000000000000, 4096, "naive", 0x465b193311bb074e),
    ("line", "naive", "off", "fixed-1001", 0x3fea7004178749e9, 0x3f9807035fbf30c2, 0x0000000000000000, 1001, "naive", 0x3ab0ff0d7661f382),
    ("line", "naive", "off", "fixed-1", 0x3ff0000000000000, 0x3fd963f2b137a224, 0x0000000000000000, 1, "naive", 0xaab1693229ba1db8),
    ("line", "naive", "on", "default", 0x3fea3cd4ee933eac, 0x3f64e8022149ffad, 0x3f55555555555555, 768, "naive", 0xfc2ae9349af3309e),
    ("line", "naive", "on", "fixed-4096", 0x3fea437f993de957, 0x3f562d02348fb9cc, 0x3f60000000000000, 4096, "naive", 0x465b193311bb074e),
    ("line", "naive", "on", "fixed-1001", 0x3fea3f508aaa1760, 0x3f600a3c7495dd7c, 0x3f505e1d27a3ee9c, 1001, "naive", 0x3ab0ff0d7661f382),
    ("line", "naive", "on", "fixed-1", 0x3fea477f993de957, 0x7ff0000000000000, 0x0000000000000000, 1, "naive", 0xaab1693229ba1db8),
    ("line", "naive", "distrusted", "default", 0x3fea408102040810, 0x3f71174f8c3dfb85, 0x3f6366cd9b366cda, 32512, "naive", 0x1948181ae9f31af5),
    ("line", "naive", "distrusted", "fixed-4096", 0x3fea300000000000, 0x3f882d71d5dc9214, 0x3f60000000000000, 4096, "naive", 0x465b193311bb074e),
    ("line", "naive", "distrusted", "fixed-1001", 0x3fea7004178749e9, 0x3f9807035fbf30c2, 0x3f505e1d27a3ee9c, 1001, "naive", 0x3ab0ff0d7661f382),
    ("line", "naive", "distrusted", "fixed-1", 0x3fea477f993de957, 0x7ff0000000000000, 0x0000000000000000, 1, "naive", 0xaab1693229ba1db8),
    ("line", "sobol", "off", "default", 0x3fea43468d1a3469, 0x3f7114171347e80e, 0x0000000000000000, 32512, "sobol", 0x87f6c546f0c32e9d),
    ("line", "sobol", "off", "fixed-4096", 0x3fea460000000000, 0x3f8809a5d04898d2, 0x0000000000000000, 4096, "sobol", 0x4b94b330d1a31144),
    ("line", "sobol", "off", "fixed-1001", 0x3fea3ee9c0105e1d, 0x3f9858e31117a670, 0x0000000000000000, 1001, "sobol", 0xde6fa939cfbd091e),
    ("line", "sobol", "off", "fixed-1", 0x0000000000000000, 0x3fd963f2b137a224, 0x0000000000000000, 1, "sobol", 0xa8c7f832281a39c5),
    ("line", "sobol", "on", "default", 0x3fea59c8bdd0327c, 0x3f65efd2d3a6fdcb, 0x3f6b6db6db6db6db, 1792, "sobol", 0x9298e4902cdbb19d),
    ("line", "sobol", "on", "fixed-4096", 0x3fea597f993de957, 0x3f5c3fbabfa70008, 0x3f6a000000000000, 4096, "sobol", 0x4b94b330d1a31144),
    ("line", "sobol", "on", "fixed-1001", 0x3fea600cc4f95f3d, 0x3f71ed1329a0037b, 0x3f7475a4718cea43, 1001, "sobol", 0xde6fa939cfbd091e),
    ("line", "sobol", "on", "fixed-1", 0x3fea477f993de957, 0x7ff0000000000000, 0x0000000000000000, 1, "sobol", 0xa8c7f832281a39c5),
    ("line", "sobol", "distrusted", "default", 0x3fea43468d1a3469, 0x3f7114171347e80e, 0x3f65ebd7af5ebd7b, 32512, "sobol", 0x87f6c546f0c32e9d),
    ("line", "sobol", "distrusted", "fixed-4096", 0x3fea460000000000, 0x3f8809a5d04898d2, 0x3f6a000000000000, 4096, "sobol", 0x4b94b330d1a31144),
    ("line", "sobol", "distrusted", "fixed-1001", 0x3fea3ee9c0105e1d, 0x3f9858e31117a670, 0x3f7475a4718cea43, 1001, "sobol", 0xde6fa939cfbd091e),
    ("line", "sobol", "distrusted", "fixed-1", 0x3fea477f993de957, 0x7ff0000000000000, 0x0000000000000000, 1, "sobol", 0xa8c7f832281a39c5),
    ("line", "sobol-scrambled", "off", "default", 0x3fea240000000000, 0x3f70298afd4f4de1, 0x0000000000000000, 2048, "sobol-scrambled", 0x9953e532afc9621a),
    ("line", "sobol-scrambled", "off", "fixed-4096", 0x3fea2e0000000000, 0x3f68bf5b8b96ca33, 0x0000000000000000, 4096, "sobol-scrambled", 0x42a74b327ead8a6c),
    ("line", "sobol-scrambled", "off", "fixed-1001", 0x3fea30c30c30c30b, 0x3f76530c00132f76, 0x0000000000000000, 1008, "sobol-scrambled", 0x735d5b82741c186f),
    ("line", "sobol-scrambled", "off", "fixed-1", 0x3ff0000000000000, 0x0000000000000000, 0x0000000000000000, 8, "sobol-scrambled", 0xaab1693229ba1db8),
    ("line", "sobol-scrambled", "on", "default", 0x3fea577f993de957, 0x3f6487915de4f3ee, 0x3f60000000000000, 1024, "sobol-scrambled", 0x7bc6c132a07dc5c6),
    ("line", "sobol-scrambled", "on", "fixed-4096", 0x3fea4d7f993de957, 0x3f5f3817c0887c74, 0x3f5c000000000000, 4096, "sobol-scrambled", 0x42a74b327ead8a6c),
    ("line", "sobol-scrambled", "on", "fixed-1001", 0x3fea57c09d4e2a5b, 0x3f64dafd5331bada, 0x3f60410410410410, 1008, "sobol-scrambled", 0x735d5b82741c186f),
    ("line", "sobol-scrambled", "on", "fixed-1", 0x3fea477f993de957, 0x0000000000000000, 0x0000000000000000, 8, "sobol-scrambled", 0xaab1693229ba1db8),
    ("line", "sobol-scrambled", "distrusted", "default", 0x3fea240000000000, 0x3f70298afd4f4de1, 0x3f58000000000000, 2048, "sobol-scrambled", 0x9953e532afc9621a),
    ("line", "sobol-scrambled", "distrusted", "fixed-4096", 0x3fea2e0000000000, 0x3f68bf5b8b96ca33, 0x3f5c000000000000, 4096, "sobol-scrambled", 0x42a74b327ead8a6c),
    ("line", "sobol-scrambled", "distrusted", "fixed-1001", 0x3fea30c30c30c30b, 0x3f76530c00132f76, 0x3f60410410410410, 1008, "sobol-scrambled", 0x735d5b82741c186f),
    ("line", "sobol-scrambled", "distrusted", "fixed-1", 0x3fea477f993de957, 0x0000000000000000, 0x0000000000000000, 8, "sobol-scrambled", 0xaab1693229ba1db8),
    ("line", "importance", "off", "default", 0x3fea3171ac5e576b, 0x3f73284d6bffc221, 0x0000000000000000, 7936, "importance", 0xfce6ce27b15daf98),
    ("line", "importance", "off", "fixed-4096", 0x3fea2a0edb308968, 0x3f7abb8bec903b25, 0x0000000000000000, 4096, "importance", 0x2b3ef5b271b853c4),
    ("line", "importance", "off", "fixed-1001", 0x3fe9f947de92de23, 0x3f8b818beee5df2a, 0x0000000000000000, 1001, "importance", 0xe32a25fd0b93c80c),
    ("line", "importance", "off", "fixed-1", 0x3fdb84691c55a9b8, 0x7ff0000000000000, 0x0000000000000000, 1, "importance", 0xa588f98c53c0f630),
    ("line", "importance", "on", "default", 0x3fea475620bccf9a, 0x3f6b54dd51564b26, 0x3f6bdedcf48c6c21, 768, "importance", 0x194d0efddcc68a87),
    ("line", "importance", "on", "fixed-4096", 0x3fea44aa04de862f, 0x3f58236d692cee32, 0x3f6ce058809882a8, 4096, "importance", 0x2b3ef5b271b853c4),
    ("line", "importance", "on", "fixed-1001", 0x3fea3c5e837f080c, 0x3f69ec1cbdea14e8, 0x3f7031af1b1289f6, 1001, "importance", 0xe32a25fd0b93c80c),
    ("line", "importance", "on", "fixed-1", 0x3fea477f993de957, 0x7ff0000000000000, 0x0000000000000000, 1, "importance", 0xa588f98c53c0f630),
    ("line", "importance", "distrusted", "default", 0x3fea3171ac5e576b, 0x3f73284d6bffc221, 0x3f68ffab0c659a9f, 7936, "importance", 0xfce6ce27b15daf98),
    ("line", "importance", "distrusted", "fixed-4096", 0x3fea2a0edb308968, 0x3f7abb8bec903b25, 0x3f6ce058809882a8, 4096, "importance", 0x2b3ef5b271b853c4),
    ("line", "importance", "distrusted", "fixed-1001", 0x3fe9f947de92de23, 0x3f8b818beee5df2a, 0x3f7031af1b1289f6, 1001, "importance", 0xe32a25fd0b93c80c),
    ("line", "importance", "distrusted", "fixed-1", 0x3fea477f993de957, 0x7ff0000000000000, 0x0000000000000000, 1, "importance", 0xa588f98c53c0f630),
    ("line", "surrogate-is", "off", "default", 0x3fea4ee479d8425a, 0x3f5cfbf16102e9a3, 0x3f4d938269640b88, 768, "surrogate-is", 0xd33fda30d160fb7a),
    ("line", "surrogate-is", "off", "fixed-4096", 0x3fea48c8a87902f7, 0x3f53aa5a9bc79fee, 0x3f6215f3dd8e4b88, 4096, "surrogate-is", 0xfe673a7c64cff94f),
    ("line", "surrogate-is", "off", "fixed-1001", 0x3fea4d2be04a32bf, 0x3f563cd2c4ad1263, 0x3f46b11c3125a104, 1001, "surrogate-is", 0x13645a787e3552a3),
    ("line", "surrogate-is", "off", "fixed-1", 0x3fea477f993de957, 0x7ff0000000000000, 0x0000000000000000, 1, "surrogate-is", 0x90f2abfe7caab1bd),
    ("line", "surrogate-is", "on", "default", 0x3fea4ee479d8425a, 0x3f5cfbf16102e9a3, 0x3f4d938269640b88, 768, "surrogate-is", 0xd33fda30d160fb7a),
    ("line", "surrogate-is", "on", "fixed-4096", 0x3fea48c8a87902f7, 0x3f53aa5a9bc79fee, 0x3f6215f3dd8e4b88, 4096, "surrogate-is", 0xfe673a7c64cff94f),
    ("line", "surrogate-is", "on", "fixed-1001", 0x3fea4d2be04a32bf, 0x3f563cd2c4ad1263, 0x3f46b11c3125a104, 1001, "surrogate-is", 0x13645a787e3552a3),
    ("line", "surrogate-is", "on", "fixed-1", 0x3fea477f993de957, 0x7ff0000000000000, 0x0000000000000000, 1, "surrogate-is", 0x90f2abfe7caab1bd),
    ("line", "surrogate-is", "distrusted", "default", 0x3fea3f445b9111aa, 0x3f71f71e9bce4df4, 0x3f6142ef9ca75223, 7936, "importance", 0xd17cb102e53cbf16),
    ("line", "surrogate-is", "distrusted", "fixed-4096", 0x3fea4a5ab781e922, 0x3f78dd06bdee4d2c, 0x3f6215f3dd8e4b88, 4096, "importance", 0xfe673a7c64cff94f),
    ("line", "surrogate-is", "distrusted", "fixed-1001", 0x3fea64d566298c87, 0x3f88c2459e5d1a33, 0x3f46b11c3125a104, 1001, "importance", 0x13645a787e3552a3),
    ("line", "surrogate-is", "distrusted", "fixed-1", 0x3fea477f993de957, 0x7ff0000000000000, 0x0000000000000000, 1, "surrogate-is", 0x90f2abfe7caab1bd),
    ("line", "analytic", "off", "default", 0x3fea477f993de958, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x6d9d58c84d8f6a75),
    ("line", "analytic", "off", "fixed-4096", 0x3fea477f993de958, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x6d9d58c84d8f6a75),
    ("line", "analytic", "off", "fixed-1001", 0x3fea477f993de958, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x6d9d58c84d8f6a75),
    ("line", "analytic", "off", "fixed-1", 0x3fea477f993de958, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x6d9d58c84d8f6a75),
    ("line", "analytic", "on", "default", 0x3fea477f993de958, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x6d9d58c84d8f6a75),
    ("line", "analytic", "on", "fixed-4096", 0x3fea477f993de958, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x6d9d58c84d8f6a75),
    ("line", "analytic", "on", "fixed-1001", 0x3fea477f993de958, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x6d9d58c84d8f6a75),
    ("line", "analytic", "on", "fixed-1", 0x3fea477f993de958, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x6d9d58c84d8f6a75),
    ("line", "analytic", "distrusted", "default", 0x3fea477f993de958, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x6d9d58c84d8f6a75),
    ("line", "analytic", "distrusted", "fixed-4096", 0x3fea477f993de958, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x6d9d58c84d8f6a75),
    ("line", "analytic", "distrusted", "fixed-1001", 0x3fea477f993de958, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x6d9d58c84d8f6a75),
    ("line", "analytic", "distrusted", "fixed-1", 0x3fea477f993de958, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x6d9d58c84d8f6a75),
    ("network", "naive", "off", "default", 0x3fe92b162c58b163, 0x3f723e66d806b5f8, 0x0000000000000000, 32512, "naive", 0x97360951311cfb7b),
    ("network", "naive", "off", "fixed-4096", 0x3fe9120000000000, 0x3f89d3c44c906381, 0x0000000000000000, 4096, "naive", 0x1f1e461cbaf1670b),
    ("network", "naive", "off", "fixed-1001", 0x3fe9519519519519, 0x3f99c244bb41ab85, 0x0000000000000000, 1001, "naive", 0xbc053aac60ef96a1),
    ("network", "naive", "off", "fixed-1", 0x3ff0000000000000, 0x3fd963f2b137a224, 0x0000000000000000, 1, "naive", 0x01254f26d3b0bba5),
    ("network", "naive", "on", "default", 0x3fe931e0addd3da9, 0x3f71dd0156d49ce7, 0x3f82492492492492, 1792, "naive", 0x248a4327d640db21),
    ("network", "naive", "on", "fixed-4096", 0x3fe92be0addd3da9, 0x3f6902d93889fbfd, 0x3f84800000000000, 4096, "naive", 0x1f1e461cbaf1670b),
    ("network", "naive", "on", "fixed-1001", 0x3fe9389747d27fe6, 0x3f7527b81deca597, 0x3f7ca4b3055ee191, 1001, "naive", 0xbc053aac60ef96a1),
    ("network", "naive", "on", "fixed-1", 0x3fe971e0addd3da9, 0x7ff0000000000000, 0x0000000000000000, 1, "naive", 0x01254f26d3b0bba5),
    ("network", "naive", "distrusted", "default", 0x3fe92b162c58b163, 0x3f723e66d806b5f8, 0x3f82448912244891, 32512, "naive", 0x97360951311cfb7b),
    ("network", "naive", "distrusted", "fixed-4096", 0x3fe9120000000000, 0x3f89d3c44c906381, 0x3f84800000000000, 4096, "naive", 0x1f1e461cbaf1670b),
    ("network", "naive", "distrusted", "fixed-1001", 0x3fe9519519519519, 0x3f99c244bb41ab85, 0x3f7ca4b3055ee191, 1001, "naive", 0xbc053aac60ef96a1),
    ("network", "naive", "distrusted", "fixed-1", 0x3fe971e0addd3da9, 0x7ff0000000000000, 0x0000000000000000, 1, "naive", 0x01254f26d3b0bba5),
    ("network", "sobol", "off", "default", 0x3fe9342850a14285, 0x3f72358dc3bee957, 0x0000000000000000, 32512, "sobol", 0x655525f22d9be110),
    ("network", "sobol", "off", "fixed-4096", 0x3fe9340000000000, 0x3f89a57c8aa16513, 0x0000000000000000, 4096, "sobol", 0x70228f12274c2eab),
    ("network", "sobol", "off", "fixed-1001", 0x3fe8ffbe878b6170, 0x3f9a32c8e792eddf, 0x0000000000000000, 1001, "sobol", 0xe1ba4f4fe4e129b0),
    ("network", "sobol", "off", "fixed-1", 0x0000000000000000, 0x3fd963f2b137a224, 0x0000000000000000, 1, "sobol", 0xb9b23f3a46fd0825),
    ("network", "sobol", "on", "default", 0x3fe928bc1b941917, 0x3f72efb75ee5d983, 0x3f84924924924925, 1792, "sobol", 0x95f4e78d13911473),
    ("network", "sobol", "on", "fixed-4096", 0x3fe931e0addd3da9, 0x3f66c6876e0ec332, 0x3f81000000000000, 4096, "sobol", 0x70228f12274c2eab),
    ("network", "sobol", "on", "fixed-1001", 0x3fe93068393eadef, 0x3f794af9d2983d84, 0x3f8475a4718cea43, 1001, "sobol", 0xe1ba4f4fe4e129b0),
    ("network", "sobol", "on", "fixed-1", 0x3fe971e0addd3da9, 0x7ff0000000000000, 0x0000000000000000, 1, "sobol", 0xb9b23f3a46fd0825),
    ("network", "sobol", "distrusted", "default", 0x3fe9342850a14285, 0x3f72358dc3bee957, 0x3f82a54a952a54a9, 32512, "sobol", 0x655525f22d9be110),
    ("network", "sobol", "distrusted", "fixed-4096", 0x3fe9340000000000, 0x3f89a57c8aa16513, 0x3f81000000000000, 4096, "sobol", 0x70228f12274c2eab),
    ("network", "sobol", "distrusted", "fixed-1001", 0x3fe8ffbe878b6170, 0x3f9a32c8e792eddf, 0x3f8475a4718cea43, 1001, "sobol", 0xe1ba4f4fe4e129b0),
    ("network", "sobol", "distrusted", "fixed-1", 0x3fe971e0addd3da9, 0x7ff0000000000000, 0x0000000000000000, 1, "sobol", 0xb9b23f3a46fd0825),
    ("network", "sobol-scrambled", "off", "default", 0x3fe9460000000000, 0x3f6bc1f50e21fde5, 0x0000000000000000, 4096, "sobol-scrambled", 0xd908e87f8c857c91),
    ("network", "sobol-scrambled", "off", "fixed-4096", 0x3fe9460000000000, 0x3f6bc1f50e21fde5, 0x0000000000000000, 4096, "sobol-scrambled", 0xd908e87f8c857c91),
    ("network", "sobol-scrambled", "off", "fixed-1001", 0x3fe934d34d34d34d, 0x3f871f383cbc6b69, 0x0000000000000000, 1008, "sobol-scrambled", 0xd22cdd5c51a77ffc),
    ("network", "sobol-scrambled", "off", "fixed-1", 0x3fec000000000000, 0x3fcf5c0331eeff84, 0x0000000000000000, 8, "sobol-scrambled", 0x8543e9c3a16090e9),
    ("network", "sobol-scrambled", "on", "default", 0x3fe951e0addd3da9, 0x3f70c327363cc9b8, 0x3f70000000000000, 1024, "sobol-scrambled", 0x93fdf9965970e73d),
    ("network", "sobol-scrambled", "on", "fixed-4096", 0x3fe93fe0addd3da9, 0x3f60298afd4f4de1, 0x3f7b000000000000, 4096, "sobol-scrambled", 0xd908e87f8c857c91),
    ("network", "sobol-scrambled", "on", "fixed-1001", 0x3fe9597f27c4dc23, 0x3f67512bf9fcca87, 0x3f68618618618618, 1008, "sobol-scrambled", 0xd22cdd5c51a77ffc),
    ("network", "sobol-scrambled", "on", "fixed-1", 0x3fe971e0addd3da9, 0x0000000000000000, 0x0000000000000000, 8, "sobol-scrambled", 0x8543e9c3a16090e9),
    ("network", "sobol-scrambled", "distrusted", "default", 0x3fe9460000000000, 0x3f6bc1f50e21fde5, 0x3f7b000000000000, 4096, "sobol-scrambled", 0xd908e87f8c857c91),
    ("network", "sobol-scrambled", "distrusted", "fixed-4096", 0x3fe9460000000000, 0x3f6bc1f50e21fde5, 0x3f7b000000000000, 4096, "sobol-scrambled", 0xd908e87f8c857c91),
    ("network", "sobol-scrambled", "distrusted", "fixed-1001", 0x3fe934d34d34d34d, 0x3f871f383cbc6b69, 0x3f68618618618618, 1008, "sobol-scrambled", 0xd22cdd5c51a77ffc),
    ("network", "sobol-scrambled", "distrusted", "fixed-1", 0x3fe971e0addd3da9, 0x0000000000000000, 0x0000000000000000, 8, "sobol-scrambled", 0x8543e9c3a16090e9),
    ("network", "importance", "off", "default", 0x3fe9187df6432c57, 0x3f73bb8f365a76b8, 0x0000000000000000, 16128, "importance", 0x49357c93e8f30926),
    ("network", "importance", "off", "fixed-4096", 0x3fe9567516f0a893, 0x3f81c6f211509808, 0x0000000000000000, 4096, "importance", 0xe436ac29442177b5),
    ("network", "importance", "off", "fixed-1001", 0x3fe903708ccaba7a, 0x3f936468c32002ec, 0x0000000000000000, 1001, "importance", 0xba77ba4e84bb763e),
    ("network", "importance", "off", "fixed-1", 0x3fe561b063c1d0b1, 0x7ff0000000000000, 0x0000000000000000, 1, "importance", 0x148653a71e45c1be),
    ("network", "importance", "on", "default", 0x3fe9469c3a1464cd, 0x3f68602bb4ad2fc6, 0x3f77b8a85570c3d3, 1792, "importance", 0xb7e79fd90f93bc3f),
    ("network", "importance", "on", "fixed-4096", 0x3fe9480e9f1d24be, 0x3f64b07bbfb9382f, 0x3f7ccc79cb116f8e, 4096, "importance", 0xe436ac29442177b5),
    ("network", "importance", "on", "fixed-1001", 0x3fe9419aae77e21c, 0x3f715df6e750d9e5, 0x3f7bdfbe4022bd65, 1001, "importance", 0xba77ba4e84bb763e),
    ("network", "importance", "on", "fixed-1", 0x3fe971e0addd3da9, 0x7ff0000000000000, 0x0000000000000000, 1, "importance", 0x148653a71e45c1be),
    ("network", "importance", "distrusted", "default", 0x3fe9187df6432c57, 0x3f73bb8f365a76b8, 0x3f7c4c05c7d36e4f, 16128, "importance", 0x49357c93e8f30926),
    ("network", "importance", "distrusted", "fixed-4096", 0x3fe9567516f0a893, 0x3f81c6f211509808, 0x3f7ccc79cb116f8e, 4096, "importance", 0xe436ac29442177b5),
    ("network", "importance", "distrusted", "fixed-1001", 0x3fe903708ccaba7a, 0x3f936468c32002ec, 0x3f7bdfbe4022bd65, 1001, "importance", 0xba77ba4e84bb763e),
    ("network", "importance", "distrusted", "fixed-1", 0x3fe971e0addd3da9, 0x7ff0000000000000, 0x0000000000000000, 1, "importance", 0x148653a71e45c1be),
    ("network", "surrogate-is", "off", "default", 0x3fe92e4c38ed03c8, 0x3f6f6e5aad5d0524, 0x3f8593ab2ceee9ed, 3840, "surrogate-is", 0x90635dc203a69a09),
    ("network", "surrogate-is", "off", "fixed-4096", 0x3fe92bf6c28f848a, 0x3f6e7cbef43dbd58, 0x3f85de1fe540b21d, 4096, "surrogate-is", 0xd428122f52effda4),
    ("network", "surrogate-is", "off", "fixed-1001", 0x3fe8fe3f439db26e, 0x3f8807eb08572ffe, 0x3f947783e7c2e0b7, 1001, "surrogate-is", 0x3da9568fec2ba736),
    ("network", "surrogate-is", "off", "fixed-1", 0x3fe971e0addd3da9, 0x7ff0000000000000, 0x0000000000000000, 1, "surrogate-is", 0x3215359aff4f7712),
    ("network", "surrogate-is", "on", "default", 0x3fe92e4c38ed03c8, 0x3f6f6e5aad5d0524, 0x3f8593ab2ceee9ed, 3840, "surrogate-is", 0x90635dc203a69a09),
    ("network", "surrogate-is", "on", "fixed-4096", 0x3fe92bf6c28f848a, 0x3f6e7cbef43dbd58, 0x3f85de1fe540b21d, 4096, "surrogate-is", 0xd428122f52effda4),
    ("network", "surrogate-is", "on", "fixed-1001", 0x3fe8fe3f439db26e, 0x3f8807eb08572ffe, 0x3f947783e7c2e0b7, 1001, "surrogate-is", 0x3da9568fec2ba736),
    ("network", "surrogate-is", "on", "fixed-1", 0x3fe971e0addd3da9, 0x7ff0000000000000, 0x0000000000000000, 1, "surrogate-is", 0x3215359aff4f7712),
    ("network", "surrogate-is", "distrusted", "default", 0x3fe93c7eedff87cc, 0x3f715f0ac65e1b37, 0x3f834943f1aac818, 16128, "importance", 0xb796689b958d2916),
    ("network", "surrogate-is", "distrusted", "fixed-4096", 0x3fe9378a742edab8, 0x3f80d5e54ed26855, 0x3f85de1fe540b21d, 4096, "importance", 0xd428122f52effda4),
    ("network", "surrogate-is", "distrusted", "fixed-1001", 0x3fe94c3d2fe7b75c, 0x3f922f49e0f5f6e8, 0x3f947783e7c2e0b7, 1001, "importance", 0x3da9568fec2ba736),
    ("network", "surrogate-is", "distrusted", "fixed-1", 0x3fe971e0addd3da9, 0x7ff0000000000000, 0x0000000000000000, 1, "surrogate-is", 0x3215359aff4f7712),
    ("network", "analytic", "off", "default", 0x3fe971e0addd3dac, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x5fd6316788c708d5),
    ("network", "analytic", "off", "fixed-4096", 0x3fe971e0addd3dac, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x5fd6316788c708d5),
    ("network", "analytic", "off", "fixed-1001", 0x3fe971e0addd3dac, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x5fd6316788c708d5),
    ("network", "analytic", "off", "fixed-1", 0x3fe971e0addd3dac, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x5fd6316788c708d5),
    ("network", "analytic", "on", "default", 0x3fe971e0addd3dac, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x5fd6316788c708d5),
    ("network", "analytic", "on", "fixed-4096", 0x3fe971e0addd3dac, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x5fd6316788c708d5),
    ("network", "analytic", "on", "fixed-1001", 0x3fe971e0addd3dac, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x5fd6316788c708d5),
    ("network", "analytic", "on", "fixed-1", 0x3fe971e0addd3dac, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x5fd6316788c708d5),
    ("network", "analytic", "distrusted", "default", 0x3fe971e0addd3dac, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x5fd6316788c708d5),
    ("network", "analytic", "distrusted", "fixed-4096", 0x3fe971e0addd3dac, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x5fd6316788c708d5),
    ("network", "analytic", "distrusted", "fixed-1001", 0x3fe971e0addd3dac, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x5fd6316788c708d5),
    ("network", "analytic", "distrusted", "fixed-1", 0x3fe971e0addd3dac, 0x0000000000000000, 0x0000000000000000, 0, "analytic", 0x5fd6316788c708d5),
];

fn variation() -> DriveVariation {
    DriveVariation {
        sigma_d2d: 0.08,
        sigma_wid: 0.05,
    }
}

fn line() -> NetworkProblem {
    let stages = StageDelays::new(vec![28e-12; 10], vec![11e-12; 10]);
    LineProblem {
        deadline_s: stages.nominal_delay() * 1.06,
        stages,
        variation: variation(),
        correlation: SpatialCorrelation::none(),
    }
    .as_network()
}

fn network() -> NetworkProblem {
    let ch = || StageDelays::new(vec![26e-12; 8], vec![10e-12; 8]);
    let period = ch().nominal_delay() * 1.09;
    let regions: Vec<usize> = (0..64).map(|s| s / 16).collect();
    NetworkProblem::new((0..8).map(|_| ch()).collect(), variation(), period)
        .with_correlation(SpatialCorrelation::regional(0.5, regions))
}

/// FNV-1a over the little-endian bytes of each value's bits.
fn fnv64(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Control-variate settings: (name, on, disagreement threshold).
const CVS: [(&str, bool, f64); 3] = [
    ("off", false, 0.25),
    ("on", true, 0.25),
    ("distrusted", true, 0.0),
];

const BUDGETS: [(&str, Option<usize>); 4] = [
    ("default", None),
    ("fixed-4096", Some(4096)),
    ("fixed-1001", Some(1001)),
    ("fixed-1", Some(1)),
];

fn computed() -> Vec<Golden> {
    let problems = [("line", line()), ("network", network())];
    let mut rows = Vec::new();
    for (pname, problem) in &problems {
        for method in Method::ALL {
            for (cname, cv, threshold) in CVS {
                for (bname, budget) in BUDGETS {
                    let mut cfg = EstimatorConfig::new(method)
                        .with_seed(41)
                        .with_control_variate(cv)
                        .with_disagreement_threshold(threshold);
                    if let Some(n) = budget {
                        cfg = cfg.with_target_half_width(0.0).with_max_evals(n);
                    }
                    let est = estimate_network_yield(problem, &cfg);
                    let o = est.overall;
                    rows.push((
                        *pname,
                        method.name(),
                        cname,
                        bname,
                        o.yield_fraction.to_bits(),
                        o.half_width.to_bits(),
                        o.surrogate_disagreement.to_bits(),
                        o.evals,
                        o.method.name(),
                        fnv64(&est.channel_yield),
                    ));
                }
            }
        }
    }
    rows
}

#[test]
fn every_estimator_reproduces_its_golden_bits() {
    let rows = computed();
    if rows != GOLDEN {
        let table: String = rows
            .iter()
            .map(|(p, m, cv, b, y, hw, d, n, rm, h)| {
                format!(
                    "    (\"{p}\", \"{m}\", \"{cv}\", \"{b}\", {y:#018x}, {hw:#018x}, {d:#018x}, \
                     {n}, \"{rm}\", {h:#018x}),\n"
                )
            })
            .collect();
        let differ = |(a, b): &(&Golden, &Golden)| a != b;
        let moved =
            rows.iter().zip(GOLDEN).filter(differ).count() + rows.len().abs_diff(GOLDEN.len());
        panic!("{moved} golden rows differ; computed table:\n{table}");
    }
}
