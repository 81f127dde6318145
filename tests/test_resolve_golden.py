"""Golden resolutions: the SHA-256 of the decomposition_to_json bytes of each
phase under four ResolveParams, and the exception type and message of the
phases that resolve() rejects.  Any change to how charts, cuts, bands or shears
are built shows here as a changed digest."""

import hashlib
import json
from fractions import Fraction

import pytest

from newton_sublevel import ResolveParams, decomposition_to_json, parse_expression, resolve

PARAMS = {
    "default": ResolveParams(),
    "narrow": ResolveParams(xi=Fraction(1, 16), delta=Fraction(1, 2), x_max=Fraction(1, 8)),
    "eta": ResolveParams(eta=Fraction(1, 4)),
    "wide": ResolveParams(eta=Fraction(1, 3), xi=Fraction(1, 4), delta=Fraction(1, 8),
                          x_max=Fraction(1, 2)),
}

# The catalog and the two extra phases, seven members of the benchmark's
# two-branch family plus (y - x)*(y + x) + x^3, five phases whose edges carry
# two or three positive roots (so the strips are stacked and each strip's
# half-width is bounded by the gaps to its neighbours), then four phases that
# sampled certification refused (a band range padded over [-B, B], a cap of
# 20 radius halvings) and that resolve with proved radii, and the irrational
# edge root, which fails.  Each of the five stacked phases has a strip at a
# simple root, so a change to how such a strip is charted will re-record them.
# Each value is the hex digest of json.dumps(decomposition_to_json(dec),
# sort_keys=True), or the (type, message) of the exception.
GOLDEN = {
    ("x^2 + y^2", "default"):
        "ea4a88e072b30635cfa0c5ca3fd75bb9788514bf77664d705e51f618ad3897df",
    ("x^2 + y^2", "narrow"):
        "4a9f6410a45a771fde78764a7f4f348120d73e5b69961b58d3e9dd15cf47f6ee",
    ("x^2 + y^2", "eta"):
        "82f67ce93759aff2e67750b306dc028e60490468ca020edc4abf0688eb97089c",
    ("x^2 + y^2", "wide"):
        "72e85f436df155856d2f504b8acf229404ae3e564447e9a5e4ef74153a93688c",
    ("x*y", "default"):
        "ee93d8658994a4e6c8c82c73443c152620b2caaacecec3d3041b2806919fbcf2",
    ("x*y", "narrow"):
        "90e387e600f9490b40302017b103ed3dd5b05ea0992a6afa188361a66bf0cbc6",
    ("x*y", "eta"):
        "b4b1ffae5b35c882ab2d7cef357ce9e982ee1a04d8fb20208001235fe6597831",
    ("x*y", "wide"):
        "41cb990a9575fc81899e5009267b4ce3967234155449428744cf0a90ec042bf0",
    ("x^2 - y^2", "default"):
        "e9012a0453825a79a79d6c8e03e50e7158d6c8b169f8365f2141666707a10b4e",
    ("x^2 - y^2", "narrow"):
        "5b31bd8882c9d37277518f4432a9ef361c9bc5ff9526293b2981558c597cbf5d",
    ("x^2 - y^2", "eta"):
        "60a3a2c09bd8c214eb268b5e6e11466e45342b664997484a400b7b57dded70f1",
    ("x^2 - y^2", "wide"):
        "3d5cd01b698cd3b9a6475f3c2c2e459c34a8c3ec69710eec10fcc2d57425c1eb",
    ("(y - x^2)^2", "default"):
        "23a65a37f984a1fd12067679dd471d5fbb5c5e5d508aba20df5bcaea230054c5",
    ("(y - x^2)^2", "narrow"):
        "46b6e3df8b5a7dae7feb6e26b471d22589fc02be3a72f9912f7841f3fd5d44ae",
    ("(y - x^2)^2", "eta"):
        "57a28320a724ba8b5679cb26dfb9ba4c9e82376b74db8e043e1482f2cc7b7b97",
    ("(y - x^2)^2", "wide"):
        "2ff54c9ca22bec6ba8dea0bae2815b3ce1be20bbbfd0eeef97edd45bba81a4f6",
    ("x^2*y^2 + x^5", "default"):
        "d00aa0fc28f8d23465b4480b9c817e1031bdebfabcbf10dd9c20eb8172c44536",
    ("x^2*y^2 + x^5", "narrow"):
        "1f4ed28649c691fdf72666040ee8d59c5e1f11e95a098f4f16393872dcdb6ff5",
    ("x^2*y^2 + x^5", "eta"):
        "7c3079f65455937a928da3f90febd1c03404fc24663fcda0d71ea16a249725a8",
    ("x^2*y^2 + x^5", "wide"):
        "f49145ba2886f622f93e4925ac6b300507cca10fc1102bf8973da68249efbadc",
    ("y^2 - x^3", "default"):
        "0539a85adc15c3b48ee3c8bfe81074f7c04300c72a21e4d4bad929d5e6d1e8ba",
    ("y^2 - x^3", "narrow"):
        "c4c42733fdf02e487c2d32f11c1e4a4e8fb55f3d2c6445a9785556b5c9cec998",
    ("y^2 - x^3", "eta"):
        "ba1fb9894959070296a7cb83fa759bb618d209142dcea72ceec7c9cdd963779e",
    ("y^2 - x^3", "wide"):
        "9d150d8fa37c4b19c2026dd027c2ca5cdce67778a088bb8ff8bb8be96db8a89d",
    ("(y - x^2 - x^3)^2 - x^9", "default"):
        "d403e74c2d63e51c211e3cea1b7b5d9023101eb8c18cc82ed2705e91d199d92b",
    ("(y - x^2 - x^3)^2 - x^9", "narrow"):
        "8199cace63cbff9e8732716e42a8e918ce114c2834d935b2e030562b919f9506",
    ("(y - x^2 - x^3)^2 - x^9", "eta"):
        "588684a57ab94b59e0c7f8bdfc4da5cdbf7ba23c73d7ca3bb18a04c483f01b81",
    ("(y - x^2 - x^3)^2 - x^9", "wide"):
        "ac181298af45e126a43440ac69273f3f45d84481fecab269cf4cf352141e7981",
    ("y^2 - 2*x^2*y + x^4 - x^7", "default"):
        "cd72c11fc65cd0521fc3a72c6d9d6dc05e653611c796f27d0af6f223478ecdab",
    ("y^2 - 2*x^2*y + x^4 - x^7", "narrow"):
        "5deac0a52876d38ea1e8e2328db407987db62565c4d30fc1e4bd3574cb90358d",
    ("y^2 - 2*x^2*y + x^4 - x^7", "eta"):
        "eedf8e120c261a5a16bbef0013056981702b113177a9e72a8980cdf7f94e7d57",
    ("y^2 - 2*x^2*y + x^4 - x^7", "wide"):
        "3b3ba072eed66ff07dadb1585f9bfec6854e2c043f3d5e3c49f59793ec7da249",
    ("(y + 2*x)*(y + 3*x^2) + 2*x^4", "default"):
        "5b98ad19826f0456002f827a1edacc593f31b373cbc4f247a5a93e0db2941f12",
    ("(y + 2*x)*(y + 3*x^2) + 2*x^4", "narrow"):
        "585552b3c627fa665349c6f4bf395afa42aa17af232f21b1337f3d196f08f2b1",
    ("(y + 2*x)*(y + 3*x^2) + 2*x^4", "eta"):
        "6ec7504801d63281d6ffb9e52a8d4eda58116e542556a442085ea0bd747377e9",
    ("(y + 2*x)*(y + 3*x^2) + 2*x^4", "wide"):
        "47c5614948207bf792acbef44c71c842da89dd31912b02966ad875bae3ea0e15",
    ("(y + 3*x)*(y - 1*x)^2 + 1*x^4", "default"):
        "45e4abdc56ddeef2573e4b32bbd84f0987fc91cdc462da0a5cf0e9387b92d49d",
    ("(y + 3*x)*(y - 1*x)^2 + 1*x^4", "narrow"):
        "71c7bb91b2f8e386fafea3db3a783a095e5ba889bb4e4487b5382dbf40d48d30",
    ("(y + 3*x)*(y - 1*x)^2 + 1*x^4", "eta"):
        "90f039e04e18a54025be63a2b7b37df05727f7020f4c525cb5c8e7685acb5c8d",
    ("(y + 3*x)*(y - 1*x)^2 + 1*x^4", "wide"):
        "8e78c9da09a4d8bf93ea1da0de745ba7a2fbaf09a4a773399a65445ad446edf2",
    ("(y - 2*x)^2*(y + 3*x)^2 + 1*x^5", "default"):
        "e7ff070a8c558121709649effde74c3b745e8bf3f6a38423c7dd24fc1cf3b85b",
    ("(y - 2*x)^2*(y + 3*x)^2 + 1*x^5", "narrow"):
        "c15d4be0e83b88b19db7a88051e088e9062c78c28d5a0db6f38a3f36de435a98",
    ("(y - 2*x)^2*(y + 3*x)^2 + 1*x^5", "eta"):
        "f7289383bee66f32a385fd83b6892606720effe8bb71a19506275075447d3151",
    ("(y - 2*x)^2*(y + 3*x)^2 + 1*x^5", "wide"):
        "b107a5165e7c10c91f7c587dcfb5ead4abe28dac687da568b206ad4abecf231c",
    ("(y - 2*x)^2*(y + 3*x^2) + 1*x^5", "default"):
        "d63b57e7f2ea14e28fa051d335263f3c2466e685b2ab651838ae4aa8905f522a",
    ("(y - 2*x)^2*(y + 3*x^2) + 1*x^5", "narrow"):
        "30b3737091003341e894b6fc2aa0f2ac2cea2fddd34d831459b170449fb3c23b",
    ("(y - 2*x)^2*(y + 3*x^2) + 1*x^5", "eta"):
        "4d7faf0e30e67b137035869ab5092e8b6dbe704f0dda093a7946921a03549582",
    ("(y - 2*x)^2*(y + 3*x^2) + 1*x^5", "wide"):
        "f4a23600912574e6c30e4545eb8bce97b90f1cb4f4e82e68d6d307787c03ef02",
    ("(y - 1*x)^2*(y + 2*x^3) + 1*x^6", "default"):
        "ab33b2d2d7312dd65c87df0ca94359c9659c395e76067907e37f37a705fb5d2a",
    ("(y - 1*x)^2*(y + 2*x^3) + 1*x^6", "narrow"):
        "d1674f7e1b996a8a937a3391dad7634abb6e01a9a88898d3bbbe3eb5597ff1d3",
    ("(y - 1*x)^2*(y + 2*x^3) + 1*x^6", "eta"):
        "cac92712bcbaad72b4cbcc5976b125f37b47b800fffb679cc897bab7f22179d8",
    ("(y - 1*x)^2*(y + 2*x^3) + 1*x^6", "wide"):
        "e8ce07c04524e90bed110825ca5cdf7e7fa858361390e486998c811b60a07369",
    ("(y - 1*x^2)^2*(y + 2*x^2) + 2*x^7", "default"):
        "f393533c899b5e88076fb6bc4b02f4843b9495984c86c4e8076e409e675bd2c8",
    ("(y - 1*x^2)^2*(y + 2*x^2) + 2*x^7", "narrow"):
        "4cf77cf2ddc4e18559751432cb3b6c117cdd1089b181a9142a22e286f6de6a85",
    ("(y - 1*x^2)^2*(y + 2*x^2) + 2*x^7", "eta"):
        "fcc3f99ca6084a16cc2b5b31ec062376985d341c92566bedfca3f563e7c6c3c2",
    ("(y - 1*x^2)^2*(y + 2*x^2) + 2*x^7", "wide"):
        "c5d92c939d6caeccc0e9c5fd47d2a8085c08345de5757a578a172dcfd5deec64",
    ("(y + 2*x)*(y - 3*x^3)^2 + 1*x^8", "default"):
        "3eb62039e3ac079bf61a9705eeeeada1f8ef5d685013d4c4d304a2185fb69054",
    ("(y + 2*x)*(y - 3*x^3)^2 + 1*x^8", "narrow"):
        "7fff9d8b1b18c297650a9d3e4effb924444c459aec122c57d263f348f15f0e85",
    ("(y + 2*x)*(y - 3*x^3)^2 + 1*x^8", "eta"):
        "afb0033aeccea75bb74fddb1af7c34d62a5dc4f8637f5d947e3bc921e32a385f",
    ("(y + 2*x)*(y - 3*x^3)^2 + 1*x^8", "wide"):
        "b7489d79319f1d31253ceaed0498d2bbdacd6f4580e75000d73a1ec1567a8b65",
    ("(y - x)*(y + x) + x^3", "default"):
        "4992553c276f8ed8cc7a587bad752bcd8f927a21a40fda7dbbfb884c8c904715",
    ("(y - x)*(y + x) + x^3", "narrow"):
        "7a391600a189f887c2a15a23c80a22e514d039cd3c5149fd7353f4615469e343",
    ("(y - x)*(y + x) + x^3", "eta"):
        "89bae92bccac34fcd7763148eef79839ca1ef39f3498d5ed1754313295ffe275",
    ("(y - x)*(y + x) + x^3", "wide"):
        "1166e3d11edbd99db134fdb6f54883438ab8da891596e08337b49767a1bfaa7b",
    ("(y - x)*(y - 2*x)*(y - 3*x) + x^4", "default"):
        "13ac432dcd0cedad0f0e0eaed331a52e2297cd2bcc4465bb0b75f90a4e2be240",
    ("(y - x)*(y - 2*x)*(y - 3*x) + x^4", "narrow"):
        "d037c75ac9bca482ba0ca75a9ba141349fdf0cd046b7021d8f28cbe3bf2b37bc",
    ("(y - x)*(y - 2*x)*(y - 3*x) + x^4", "eta"):
        "9dcfc1bf1212f18f94953c0ad5ae5ef4ee0aa95a5fb86e22b6133c19b161aa37",
    ("(y - x)*(y - 2*x)*(y - 3*x) + x^4", "wide"):
        "4e58348630460f766ab72bd53c4a5ee520e18e2e472e4c9a004f59dd3db82728",
    ("(y - x^2)*(y - 2*x^2) + x^5", "default"):
        "a7a1193e2460dac44f797183ccc39da352c94b2d8a11b0a832e03bc96b550539",
    ("(y - x^2)*(y - 2*x^2) + x^5", "narrow"):
        "7c55a2a79c6fc2f965c9111cd14743e5bcd84ba56ed20326509955aabac70825",
    ("(y - x^2)*(y - 2*x^2) + x^5", "eta"):
        "967be8ed2305f66d3b1ac431fc9e160a620feafe1f9b6ad4e639a02260dfa94a",
    ("(y - x^2)*(y - 2*x^2) + x^5", "wide"):
        "2a7581a5c82e4fea3ef0e12334fa65d6bc2aa655411bec48563acd4858d6478c",
    ("(y - x)*(y - 5/4*x)*(y + x) + x^5", "default"):
        "85db868ae4e27ce19a72015c217f0846e9cce0cfdc748a726e17db33b86cd80c",
    ("(y - x)*(y - 5/4*x)*(y + x) + x^5", "narrow"):
        "4667c4305e66ae6b8b005ab2553315f5c9524d11ee1d6bf55717ff58a16254c9",
    ("(y - x)*(y - 5/4*x)*(y + x) + x^5", "eta"):
        "adc8cc13a1b4a2bdd6f4524d6ba4de7fd2fd9ed35de6ddc4902ada90f5da743b",
    ("(y - x)*(y - 5/4*x)*(y + x) + x^5", "wide"):
        "d6125e5b5f2820290230a4b3d2f10bdeac66e9eb9e323c7a86d0a5f2850cd730",
    ("(y - x)^2*(y - 2*x) + x^4", "default"):
        "ccd6c5e8e1e2885834a54096a6dcd269b5f17c4f3b9c054aaf3e2f779eda2fef",
    ("(y - x)^2*(y - 2*x) + x^4", "narrow"):
        "085a4f9cd5b2ecd700cf5365ae163849d7e4b55fdec2cc7948e8c2900fb644b4",
    ("(y - x)^2*(y - 2*x) + x^4", "eta"):
        "917109e29a88f605bcc146db80a86afc045d7be15ef8f9f90f46d5ce769dfe95",
    ("(y - x)^2*(y - 2*x) + x^4", "wide"):
        "49ce79c38c70b07d5e0792b760b72f8b307414c380808afa85f8851576c851fa",
    ("(y - x)*(y - 2*x)^2 + x^5", "default"):
        "9aa601942300ff6c3019f8e9205fb9155c9f42deebb8697e55f8466428dfa281",
    ("(y - x)*(y - 2*x)^2 + x^5", "narrow"):
        "bd549739769879849405e94d2e5c1eceedc5955bbc70348c67680799237121ac",
    ("(y - x)*(y - 2*x)^2 + x^5", "eta"):
        "376ecf0d214a21d1782a80a451977d2f48e347606adaa6d5778cc9eea5105dc7",
    ("(y - x)*(y - 2*x)^2 + x^5", "wide"):
        "86a45a131533f97866d0710b5882bdc5a082aa9e05fa331f7c67ecb88dc867e8",
    ("(y - 3*x^3)^3 + x^9", "default"):
        "0b972558bc30987b24c079bff931e4719ed5e2c4850bad6b165f62e8170c1163",
    ("(y - 3*x^3)^3 + x^9", "narrow"):
        "7e96053ab55c21d13ccd6d707bcf760cc0b761682385e5f1375f6c2debd3ce98",
    ("(y - 3*x^3)^3 + x^9", "eta"):
        "64840599cb56164bee7b37eeb94d8d1ffd806c2e87ff6bb48c2e44529d7b782a",
    ("(y - 3*x^3)^3 + x^9", "wide"):
        "f4dcfe2f87d15658a8e1224c8c9b508402f4bd26a50d8e625c1d3ae3ae973d88",
    ("(y - 2*x)^2*(y + x^2)^2 + x^7", "default"):
        "22427326f1bbaaedf68f0e7454549cb474a83a768c20cb82a879d97d429b00e9",
    ("(y - 2*x)^2*(y + x^2)^2 + x^7", "narrow"):
        "8ef14157d98f22e5c9ae47bc99c8d11cfbf0f8dfb9461d5a90ba6c26d9c6ee69",
    ("(y - 2*x)^2*(y + x^2)^2 + x^7", "eta"):
        "011d6b972fe37bbaf24a1d6982ee4c128441fa2d0e98870a76570ed61e4c74ad",
    ("(y - 2*x)^2*(y + x^2)^2 + x^7", "wide"):
        "60795aa5e3c6238936fb7a13ffcb3e96529ca7b09d62b642cd69f4d46d7deeba",
    ("(y + x^2)^2*(y - x^2)^2 + 2*x^9", "default"):
        "377351537b856a225c34639034b7f42405ad305933b59c5c5ac5f145b6c56d2b",
    ("(y + x^2)^2*(y - x^2)^2 + 2*x^9", "narrow"):
        "00c4bef67ad7d50de7dab1649e3d5e680842f4d611da641b11c167f305f4afa4",
    ("(y + x^2)^2*(y - x^2)^2 + 2*x^9", "eta"):
        "23edc28d68ff33bbdb8b902689fe9142abccabb389017e9827389684559d1119",
    ("(y + x^2)^2*(y - x^2)^2 + 2*x^9", "wide"):
        "12c2fc54f702bc1c42aad06c352ec6304296f0fc6ae9ff3c85f6c25c6a35511b",
    ("(y - x)^2*(y + x^3)^2 + 2*x^9", "default"):
        "6a94a0a9b290284a8b612d07c858bad4f30038f22df4607dff34289b12bca46a",
    ("(y - x)^2*(y + x^3)^2 + 2*x^9", "narrow"):
        "4ac162bac207bd600f978f9a1b689688e4802fd45dfb0fd11f300262197fd901",
    ("(y - x)^2*(y + x^3)^2 + 2*x^9", "eta"):
        "36fadc1bfb40da50599a5a42a3fa65f20e7fde8d2f3c3ada036b26bc83434b97",
    ("(y - x)^2*(y + x^3)^2 + 2*x^9", "wide"):
        "74e43485d0d6073499e0e3bf7da2f9c0756ce0550122d6b7336af26045342449",
    ("(y^2 - 2*x^2)^2 + x^9", "default"):
        ("ValueError",
         "irrational edge root: outside the model (needs an algebraic shear)"),
    ("(y^2 - 2*x^2)^2 + x^9", "narrow"):
        ("ValueError",
         "irrational edge root: outside the model (needs an algebraic shear)"),
    ("(y^2 - 2*x^2)^2 + x^9", "eta"):
        ("ValueError",
         "irrational edge root: outside the model (needs an algebraic shear)"),
    ("(y^2 - 2*x^2)^2 + x^9", "wide"):
        ("ValueError",
         "irrational edge root: outside the model (needs an algebraic shear)"),
}


@pytest.mark.parametrize("expr,params", list(GOLDEN), ids=[f"{e}|{k}" for e, k in GOLDEN])
def test_resolution_golden(expr, params):
    p = parse_expression(expr).poly
    try:
        dec = resolve(p, PARAMS[params])
    except (ValueError, RuntimeError) as ex:
        got = (type(ex).__name__, str(ex))
    else:
        got = hashlib.sha256(
            json.dumps(decomposition_to_json(dec), sort_keys=True).encode()).hexdigest()
    assert got == GOLDEN[(expr, params)]
